"""Command-line front end.

Exit codes follow the exception type alone: 0 success, 2 usage errors
(CliError), 3 malformed input (ValueError: files, configs, incompatible
parameters, numbers that are not finite or whose results do not fit a
float), 4 desk-scale cap exceeded (CapExceededError), 1 unexpected failure.
Runs with identical flags and seeds write byte-identical output.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from fractions import Fraction

from .analysis import bound_report, decay_bounds
from .encoders import complete_key_assignment, exchange_binning, greedy_code, identity_code
from .model import (
    CapExceededError,
    KeyedCode,
    SourceAlphabet,
    alphabet_from_dict,
    alphabet_to_dict,
    code_from_dict,
    code_to_dict,
    make_alphabet,
    parse_rational,
    scalar_from_json,
)
from .multisource import JointSystem, SeparableFunction, joint_distortion
from .search import MAX_K, MAX_M, MAX_UNPRUNED_COPIES, brute_force_optimal
from .simulation import SimConfig, simulate

# Largest m * 2**k (value, key) table a construction may build.  At the cap,
# exchange plus completion takes under 20 s.
CONSTRUCTION_CAP = 1_000_000
# A sweep whose rows hold fewer (value, key) pairs than this in total runs
# in process whatever --jobs is: below it, starting a pool costs more than
# the second worker saves.  Measured on 2 CPUs with `sweep --values 1..N
# --k 0..5 --alg greedy,exchange` (126 N pairs) as a subprocess, median
# seconds of 5-9 runs, serial against a pool of 2, float then --exact:
#   12k pairs: 0.20 vs 0.26, 0.16 vs 0.20    33k: 0.25 vs 0.27, 0.18 vs 0.23
#   65k-131k:  within noise either way (0.26-0.66 s against 0.30-0.56 s)
#   197k:      0.72 vs 0.51, 0.82 vs 0.67    262k: 1.14 vs 0.77, 0.97 vs 0.82
POOL_BREAK_EVEN = 2**16
REPORT_COLUMNS = [
    "alphabet_id",
    "m",
    "k",
    "alg",
    "seed",
    "d_max",
    "d_ach",
    "delta",
    "bound1",
    "bound2",
    "bound1_ok",
    "bound2_ok",
    "perfectly_secure",
]


class CliError(Exception):
    """A usage error: missing or clashing arguments (exit 2)."""


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a CliError: one ``error:`` line, exit 2."""

    def error(self, message):
        raise CliError(message)


def _fmt(x) -> str:
    try:
        f = float(x)
    except OverflowError:
        f = math.inf
    if not math.isfinite(f):
        raise ValueError("a result does not fit a finite float")
    return format(f, ".17g")


def _fmt_flag(b) -> str:
    if b is None:
        return "na"
    return "true" if b else "false"


def _int_in(text, low: int, high: float, message: str) -> int:
    """``text`` as an int in [low, high), for argparse: a ValueError would
    name the type function in argparse's message."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not low <= value < high:
        raise argparse.ArgumentTypeError(message.format(value))
    return value


def _parse_seed(text) -> int:
    return _int_in(text, 0, 2**64, "seed must fit in 64 bits")


def _parse_jobs(text) -> int:
    return _int_in(text, 1, math.inf, "must be a positive integer, got {}")


def _int_list(text) -> list[int]:
    """``_parse_int_range`` for argparse."""
    try:
        return _parse_int_range(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _parse_ks(text) -> list[int]:
    return [_int_in(k, 0, math.inf, "key bit counts must be >= 0") for k in _int_list(text)]


def _parse_seeds(text) -> list[int]:
    return [_parse_seed(seed) for seed in _int_list(text)]


def _parse_token(tok: str, exact: bool):
    tok = tok.strip()
    try:
        return int(tok)
    except ValueError:
        pass
    if "/" in tok or exact:
        return parse_rational(tok)
    try:
        return float(tok)
    except ValueError as e:
        raise ValueError(f"bad numeric literal {tok!r}") from e


def _parse_number_list(text: str, exact: bool) -> list:
    if not text.strip():
        raise ValueError("empty number list")
    return [_parse_token(tok, exact) for tok in text.split(",")]


def _parse_int_range(text: str) -> list[int]:
    """"0..5" inclusive range, or "1,3,5" list."""
    text = text.strip()
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            lo, hi = int(lo), int(hi)
        except ValueError as e:
            raise ValueError(f"bad range {text!r}") from e
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        if hi - lo + 1 > CONSTRUCTION_CAP:
            raise CapExceededError(
                f"range {text!r} has {hi - lo + 1} entries, above the cap of {CONSTRUCTION_CAP}"
            )
        return list(range(lo, hi + 1))
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError as e:
        raise ValueError(f"bad integer list {text!r}") from e


def _read_json(path: str, exact: bool):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if exact:
                return json.load(fh, parse_float=parse_rational)
            return json.load(fh)
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ValueError(f"{path} is not valid JSON: {e}") from e
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e


def _load_alphabet(args) -> SourceAlphabet:
    if args.values is None:
        raise CliError("missing --values")
    text = args.values.strip()
    pmf = _parse_number_list(args.pmf, args.exact) if args.pmf else None
    if text.startswith("@"):
        doc = _read_json(text[1:], args.exact)
        if pmf is not None and isinstance(doc, dict):
            doc = dict(doc, pmf=pmf)  # the flag overrides the file's pmf
        try:
            return alphabet_from_dict(doc)
        except ValueError as e:
            raise ValueError(f"{text[1:]}: {e}") from e
    if ".." in text and "," not in text:
        values = _parse_int_range(text)
    else:
        values = _parse_number_list(text, args.exact)
    return make_alphabet(values, pmf)


def _load_code(path: str) -> KeyedCode:
    doc = _read_json(path, exact=False)  # a code document holds only integers
    try:
        return code_from_dict(doc)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e


def _content_id(doc) -> str:
    """A report row's id: the first 12 hex digits of the SHA-1 of ``doc`` as
    sorted-key JSON."""
    import hashlib  # on use: most subcommands never hash

    blob = json.dumps(doc, sort_keys=True, default=str)
    return hashlib.sha1(blob.encode()).hexdigest()[:12]


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as e:
            raise ValueError(f"cannot write {path}: {e}") from e


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _report_row(row_id: str, m: int, k: int, alg: str, seed, report, bounds=None) -> list[str]:
    """One report CSV row; ``bounds`` is the pair ``decay_bounds`` gives,
    None where the decay bounds do not apply."""
    return [
        row_id,
        str(m),
        str(k),
        alg,
        "na" if seed is None else str(seed),
        _fmt(report.d_max),
        _fmt(report.d_ach),
        _fmt(report.delta),
        *(("na", "na") if bounds is None else map(_fmt, bounds)),
        _fmt_flag(report.bound1_ok),
        _fmt_flag(report.bound2_ok),
        _fmt_flag(report.perfectly_secure),
    ]


def _alphabet_row(
    row_id: str, code: KeyedCode, alphabet: SourceAlphabet, alg: str, seed
) -> list[str]:
    """The report row of one code on a single source; ``row_id`` is the
    alphabet's content id."""
    report = bound_report(code, alphabet)
    bounds = decay_bounds(alphabet, code.k, report.d_max)
    return _report_row(row_id, alphabet.m, code.k, alg, seed, report, bounds)


def _check_construction(m: int, k: int) -> None:
    """Refuse a construction of more than CONSTRUCTION_CAP (value, key) pairs
    before any table is built."""
    # 2**21 alone exceeds the cap, so a larger k is refused without forming 2**k.
    if k > 20 or m * 2 ** max(k, 0) > CONSTRUCTION_CAP:
        raise CapExceededError(
            f"construction needs m*2**k = {m}*2**{k} (value, key) states, "
            f"above the cap of {CONSTRUCTION_CAP}"
        )


def _build_code(alg: str, alphabet: SourceAlphabet, k: int, seed: int) -> KeyedCode:
    """``alg`` is greedy, exchange or identity: argparse and _cmd_sweep check."""
    _check_construction(alphabet.m, 0 if alg == "identity" else k)
    if alg == "greedy":
        return greedy_code(alphabet, k)
    if alg == "exchange":
        binning = exchange_binning(alphabet, k, seed=seed)
        return complete_key_assignment(binning, k)
    if k not in (0, None):
        raise ValueError("identity is the k=0 code")
    return identity_code(alphabet.m)


# --- subcommand handlers ---------------------------------------------------

def _cmd_encode(args) -> int:
    alphabet = _load_alphabet(args)
    if args.alg != "identity" and args.k is None:
        raise CliError("--k is required for greedy and exchange")
    code = _build_code(args.alg, alphabet, args.k, args.seed)
    _write_text(args.output, json.dumps(code_to_dict(code), indent=2) + "\n")
    return 0


def _cmd_analyze(args) -> int:
    alphabet = _load_alphabet(args)
    code = _load_code(args.code)
    row = _alphabet_row(_content_id(alphabet_to_dict(alphabet)), code, alphabet, "na", None)
    _write_text(args.output, _csv_text(REPORT_COLUMNS, [row]))
    return 0


def _cmd_search(args) -> int:
    alphabet = _load_alphabet(args)
    r_range = None
    if args.r_lo is not None or args.r_hi is not None:
        if args.r_lo is None or args.r_hi is None:
            raise CliError("--r-lo and --r-hi go together")
        r_range = (args.r_lo, args.r_hi)
    result = brute_force_optimal(
        alphabet,
        args.k,
        r_range=r_range,
        prune=not args.no_prune,
        force=args.force,
    )
    doc = {
        "version": 1,
        "best_delta": float(result.best_delta),
        "best_delta_exact": str(result.best_delta)
        if isinstance(result.best_delta, (int, Fraction))
        else None,
        "candidates_examined": result.candidates_examined,
        "pruned": result.pruned,
        "bound_cuts": result.bound_cuts,
        "exhaustive": True,  # pruning only drops dominated binnings
        "best_code": code_to_dict(result.best_code),
    }
    # allow_nan=False: a non-finite number is not JSON, so it exits 3
    _write_text(args.output, json.dumps(doc, indent=2, allow_nan=False) + "\n")
    return 0


def _is_list_of(x, depth: int) -> bool:
    """True when ``x`` is a list nested ``depth`` levels deep."""
    if not isinstance(x, list):
        return False
    return depth == 1 or all(_is_list_of(item, depth - 1) for item in x)


def _parse_system(doc, base_dir: str) -> JointSystem:
    version = doc.get("version") if isinstance(doc, dict) else None
    if isinstance(version, bool) or version != 1:
        raise ValueError("system config must be a JSON object with version: 1")
    for field in ("sources", "codes", "function"):
        if field not in doc:
            raise ValueError(f"system config missing field {field!r}")
    for field in ("sources", "codes"):
        if not isinstance(doc[field], list):
            raise ValueError(f"system config field {field!r} must be a list")
    sources = tuple(alphabet_from_dict(d) for d in doc["sources"])
    codes = []
    for entry in doc["codes"]:
        if isinstance(entry, str):
            path = entry
        elif isinstance(entry, dict) and "path" in entry:
            path = entry["path"]
        else:
            codes.append(code_from_dict(entry))
            continue
        if not isinstance(path, str):
            raise ValueError(f"code path must be a string, got {path!r}")
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        codes.append(_load_code(path))
    fn = doc["function"]
    if not isinstance(fn, dict) or "components" not in fn:
        raise ValueError("function must be an object with components")
    if not _is_list_of(fn["components"], 3):
        raise ValueError("components must be a list of terms, each a list of tables")
    components = tuple(
        tuple(tuple(scalar_from_json(t) for t in table) for table in term)
        for term in fn["components"]
    )
    function = SeparableFunction(
        n=len(components[0]) if components else 0,
        components=components,
        form=fn.get("form", "general-sum-of-products"),
    )
    return JointSystem(sources=sources, codes=tuple(codes), function=function)


def _cmd_compose(args) -> int:
    doc = _read_json(args.config, args.exact)
    system = _parse_system(doc, os.path.dirname(os.path.abspath(args.config)))
    report = joint_distortion(system)
    row = _report_row(
        _content_id(doc),
        math.prod(a.m for a in system.sources),
        system.total_key_bits,
        "compose",
        None,
        report,
    )
    _write_text(args.output, _csv_text(REPORT_COLUMNS, [row]))
    return 0


def _cmd_simulate(args) -> int:
    if (args.system is None) == (args.code is None):
        raise CliError("give exactly one of --code or --system")
    if args.system is not None:
        doc = _read_json(args.system, args.exact)
        target = _parse_system(doc, os.path.dirname(os.path.abspath(args.system)))
    else:
        alphabet = _load_alphabet(args)
        target = (_load_code(args.code), alphabet)
    report = simulate(SimConfig(trials=args.trials, seed=args.seed, target=target))
    rows = [[
        str(report.trials),
        str(report.seed),
        _fmt(report.analytic_dach),
        _fmt(report.empirical_dach),
        _fmt(report.stderr),
    ]]
    _write_text(
        args.output,
        _csv_text(["trials", "seed", "analytic_dach", "empirical_dach", "stderr"], rows),
    )
    return 0


def _sweep_row(spec) -> list[str]:
    row_id, alphabet, k, alg, seed = spec
    code = _build_code(alg, alphabet, k if alg != "identity" else 0, seed)
    return _alphabet_row(row_id, code, alphabet, alg, seed)


def _cmd_sweep(args) -> int:
    alphabet = _load_alphabet(args)
    algs = [a.strip() for a in args.alg.split(",") if a.strip()]
    for alg in algs:
        if alg not in ("greedy", "exchange", "identity"):
            raise CliError(f"unknown algorithm {alg!r}")
    seeds = args.seeds or [args.seed]
    keyed = any(alg != "identity" for alg in algs)
    _check_construction(alphabet.m, max(args.k) if keyed else 0)

    # Rows use the alphabet as loaded; a rebuilt one could change arithmetic
    # domain (a float pmf equal to 1/m would come back exact).  Its id is
    # hashed once, here, before any worker forks.
    row_id = _content_id(alphabet_to_dict(alphabet))
    specs = []
    for k in args.k:
        for alg in algs:
            if alg == "identity" and k != min(args.k):
                continue  # identity has no key; one row per seed
            for seed in seeds:
                specs.append((row_id, alphabet, k, alg, seed))
    # More workers than rows or CPUs cannot help, and the pool starts them all.
    workers = min(args.jobs, len(specs), os.cpu_count() or 1)
    work = sum(alphabet.m * 2 ** (0 if alg == "identity" else k) for _, _, k, alg, _ in specs)
    if workers > 1 and work >= POOL_BREAK_EVEN:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_row, specs))
    else:
        rows = [_sweep_row(spec) for spec in specs]
    _write_text(args.output, _csv_text(REPORT_COLUMNS, rows))
    return 0


# --- argument wiring -------------------------------------------------------

def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_parse_seed, default=0, metavar="U64",
                        help="RNG seed (default 0)")
    common.add_argument("--jobs", type=_parse_jobs, default=1, metavar="N",
                        help="worker bound for parallelizable steps (default 1)")
    common.add_argument("--exact", action="store_true",
                        help="parse decimal literals as exact rationals")
    common.add_argument("-o", "--output", default=None, metavar="PATH",
                        help="output file (default stdout)")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = _Parser(
        prog="distsec",
        description="Keyed block-length-one codes that maximize an eavesdropper's "
        "mean-squared estimation error.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", parents=[common], help="construct a code")
    p.add_argument("--alg", required=True, choices=["greedy", "exchange", "identity"])
    p.add_argument("--values", required=True, help="comma list, lo..hi range, or @file.json")
    p.add_argument("--pmf", default=None, help="comma list of probabilities")
    p.add_argument("--k", type=int, default=None, help="key bits")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("analyze", parents=[common], help="distortion report for a code")
    p.add_argument("--code", required=True, help="code JSON file")
    p.add_argument("--values", required=True)
    p.add_argument("--pmf", default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("search", parents=[common], help="brute-force optimal code")
    p.add_argument("--values", required=True)
    p.add_argument("--pmf", default=None)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r-lo", type=int, default=None)
    p.add_argument("--r-hi", type=int, default=None)
    p.add_argument("--no-prune", action="store_true",
                   help="disable the light-bin pruning rule and the bound cut, "
                   f"walking every binning (m*2**k <= {MAX_UNPRUNED_COPIES})")
    p.add_argument("--force", action="store_true",
                   help=f"search beyond the caps m <= {MAX_M}, k <= {MAX_K} "
                   f"and, with --no-prune, m*2**k <= {MAX_UNPRUNED_COPIES}")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("compose", parents=[common], help="analyze a multi-source system")
    p.add_argument("--config", required=True, help="system JSON config")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("simulate", parents=[common], help="Monte Carlo check")
    p.add_argument("--code", default=None)
    p.add_argument("--values", default=None)
    p.add_argument("--pmf", default=None)
    p.add_argument("--system", default=None, help="system JSON config")
    p.add_argument("--trials", type=int, default=100_000)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", parents=[common], help="report grid over k and algorithms")
    p.add_argument("--values", required=True)
    p.add_argument("--pmf", default=None)
    p.add_argument("--k", type=_parse_ks, required=True, help="range lo..hi or comma list")
    p.add_argument("--alg", required=True, help="comma list from greedy,exchange,identity")
    p.add_argument("--seeds", type=_parse_seeds, default=None,
                   help="comma list of seeds (default: --seed)")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CapExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except (ValueError, OverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except Exception as e:  # pragma: no cover - safety net
        print(f"unexpected error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
