"""Judging each job's output against the exact oracle.

The rules follow the package's documented contract:

- exact path (``--exact``): every d_max/d_ach/delta/bound cell equals
  ``float`` of the exact value and every flag equals the exact verdict;
- float path: the oracle runs on ``Fraction(x)`` of the same numbers, cells
  may differ by a relative 1e-9 of d_max (of the bound, for bound cells),
  and a flag may go either way only where the exact quantity sits within
  that tolerance of the flag's threshold;
- ``search`` reports ``best_delta_exact`` equal to the oracle's value of its
  ``best_code``, ``exhaustive`` true, and agrees with its twins;
- ``simulate`` reports the oracle's achievable distortion as its analytic
  value, and its empirical value within 4 standard errors of it.

A check raises ``Wrong``, with the reason, for an output it rejects.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from oracle import Exact, check_code, composed, single, sort_descending

REPORT_COLUMNS = [
    "alphabet_id", "m", "k", "alg", "seed", "d_max", "d_ach", "delta",
    "bound1", "bound2", "bound1_ok", "bound2_ok", "perfectly_secure",
]
SIM_COLUMNS = ["trials", "seed", "analytic_dach", "empirical_dach", "stderr"]
REL_TOL = Fraction(1, 10**9)
SIM_SIGMAS = 4


class Wrong(Exception):
    """An output the oracle rejects."""


def parse_csv(text: str, header: list[str]) -> list[list[str]]:
    lines = text.split("\r\n")
    if lines[-1] != "":
        raise Wrong("CSV does not end in CRLF")
    rows = [line.split(",") for line in lines[:-1]]
    if not rows or rows[0] != header:
        raise Wrong(f"CSV header is {rows[0] if rows else None}")
    for row in rows[1:]:
        if len(row) != len(header):
            raise Wrong(f"row has {len(row)} cells: {row}")
    return rows[1:]


def _number(cell: str, what: str) -> Fraction:
    try:
        return Fraction(float(cell))
    except (ValueError, OverflowError) as e:
        raise Wrong(f"{what}: {cell!r} is not a finite number") from e


def _value(cell: str, want: Fraction, exact: bool, scale: Fraction, what: str) -> None:
    got = _number(cell, what)
    if exact:
        if float(got) != float(want):
            raise Wrong(f"{what} = {cell}, exact value is {float(want)!r}")
    elif abs(got - want) > REL_TOL * abs(scale):
        raise Wrong(f"{what} = {cell}, exact value is {float(want)!r} (tolerance {float(REL_TOL * abs(scale)):.3g})")


def _flag(cell: str, margin: Fraction, band: Fraction, what: str) -> None:
    """``margin`` > 0 means the flag should read true; within ``band`` of
    zero either reading is accepted."""
    if cell not in ("true", "false"):
        raise Wrong(f"{what} = {cell!r}, expected true or false")
    if abs(margin) > band and (cell == "true") != (margin > 0):
        raise Wrong(f"{what} = {cell}, the exact verdict is {'true' if margin > 0 else 'false'}")


def check_report_row(row: list[str], ex: Exact, exact: bool, fields: dict) -> None:
    """One report CSV row against its oracle value.

    ``fields`` holds the expected descriptive cells (m, k, alg, seed).
    """
    for name, want in fields.items():
        got = row[REPORT_COLUMNS.index(name)]
        if got != str(want):
            raise Wrong(f"{name} = {got!r}, expected {want!r}")
    cell = dict(zip(REPORT_COLUMNS, row))
    delta = _number(cell["delta"], "delta")
    if delta < 0 and (exact or -delta > REL_TOL * ex.d_max):
        raise Wrong(f"negative advantage: delta = {cell['delta']} (d_ach > d_max)")
    for name in ("d_max", "d_ach", "delta"):
        _value(cell[name], getattr(ex, name), exact, ex.d_max, name)
    if ex.bound1 is None:
        for name in ("bound1", "bound2", "bound1_ok", "bound2_ok"):
            if cell[name] != "na":
                raise Wrong(f"{name} = {cell[name]!r}, expected na")
    else:
        spread2 = ex.bound2 * 2 ** (2 * int(cell["k"]))
        for name, bound, scale in (("bound1", ex.bound1, ex.d_max), ("bound2", ex.bound2, spread2)):
            _value(cell[name], bound, exact, bound, name)
            _flag(cell[f"{name}_ok"], bound - ex.delta, REL_TOL * scale, f"{name}_ok")
    if exact:
        _flag(cell["perfectly_secure"], Fraction(1 if ex.delta == 0 else -1), Fraction(0), "perfectly_secure")
    else:
        limit = REL_TOL * max(1, abs(ex.mean))
        if ex.max_dev <= limit / 2:
            _flag(cell["perfectly_secure"], Fraction(1), Fraction(0), "perfectly_secure")
        elif ex.min_dev >= 2 * limit:
            _flag(cell["perfectly_secure"], Fraction(-1), Fraction(0), "perfectly_secure")


def check_sim_row(text: str, ex: Exact, exact: bool, trials: int, seed: int) -> None:
    (row,) = parse_csv(text, SIM_COLUMNS)
    if row[0] != str(trials) or row[1] != str(seed):
        raise Wrong(f"trials/seed cells {row[:2]}, expected {[trials, seed]}")
    _value(row[2], ex.d_ach, exact, ex.d_max, "analytic_dach")
    empirical = _number(row[3], "empirical_dach")
    stderr = _number(row[4], "stderr")
    if abs(empirical - ex.d_ach) > SIM_SIGMAS * stderr + REL_TOL * ex.d_max:
        raise Wrong(
            f"empirical_dach = {row[3]} is {float(abs(empirical - ex.d_ach) / stderr) if stderr else float('inf'):.2f} "
            f"standard errors from the exact {float(ex.d_ach)!r}"
        )


def source_numbers(spec: dict):
    """Oracle view of a job's alphabet: exact values and pmf, descending."""
    values = [Fraction(v) for v in spec["values"]]
    pmf = None if spec.get("pmf") is None else [Fraction(p) for p in spec["pmf"]]
    return sort_descending(values, pmf)


def _read(workdir: str, name: str) -> str:
    with open(os.path.join(workdir, name), encoding="utf-8") as fh:
        return fh.read()


def _code(workdir: str, name: str) -> dict:
    try:
        doc = json.loads(_read(workdir, name))
    except (OSError, ValueError) as e:
        raise Wrong(f"cannot read code {name}: {e}") from e
    try:
        check_code(doc)
    except (KeyError, TypeError, ValueError) as e:
        raise Wrong(f"{name} is not a decodable code: {e}") from e
    return doc


class Checker:
    """Checks the jobs of one pass, in order.

    ``sweep_codes(job)`` returns, per sweep row, the assignment table of the
    code that row was computed from; the runner builds them with the
    library's constructors, which are deterministic in their seeds.
    Search results are remembered so twins can be compared.
    """

    def __init__(self, workdir: str, sweep_codes):
        self.workdir = workdir
        self.sweep_codes = sweep_codes
        self.search_best: dict[str, Fraction | None] = {}

    def check(self, job, stdout: str) -> None:
        """Raise Wrong when the output of a job that exited 0 is wrong."""
        try:
            getattr(self, "_" + job.kind.replace("-", "_"))(job, stdout)
        except Wrong:
            if job.kind == "search":
                self.search_best[job.id] = None
            raise

    def _sweep(self, job, stdout: str) -> None:
        spec = job.spec
        values, pmf = source_numbers(spec)
        rows = parse_csv(stdout, REPORT_COLUMNS)
        want = [(k, alg) for k in spec["ks"] for alg in spec["algs"]]
        if len(rows) != len(want):
            raise Wrong(f"{len(rows)} rows, expected {len(want)}")
        for row, (k, alg), code in zip(rows, want, self.sweep_codes(job)):
            try:
                check_report_row(row, single(values, pmf, code), spec["exact"],
                                 {"m": len(values), "k": k, "alg": alg, "seed": spec["seed"]})
            except Wrong as e:
                raise Wrong(f"k={k} {alg}: {e}") from None

    def _encode(self, job, stdout: str) -> None:
        doc = _code(self.workdir, job.spec["code"])
        m = len(job.spec["values"])
        if (doc["m"], doc["k"], doc["r"]) != (m, job.spec["k"], m):
            raise Wrong(f"code has m, k, r = {doc['m']}, {doc['k']}, {doc['r']}")

    def _analyze(self, job, stdout: str) -> None:
        values, pmf = source_numbers(job.spec)
        doc = _code(self.workdir, job.spec["code"])
        (row,) = parse_csv(stdout, REPORT_COLUMNS)
        check_report_row(row, single(values, pmf, doc["assignment"]), job.spec["exact"],
                         {"m": len(values), "k": doc["k"], "alg": "na", "seed": "na"})

    def _simulate(self, job, stdout: str) -> None:
        values, pmf = source_numbers(job.spec)
        doc = _code(self.workdir, job.spec["code"])
        check_sim_row(stdout, single(values, pmf, doc["assignment"]), job.spec["exact"],
                      job.spec["trials"], job.spec["seed"])

    def _search(self, job, stdout: str) -> None:
        spec = job.spec
        try:
            doc = json.loads(stdout)
            best = Fraction(doc["best_delta_exact"])
            code = doc["best_code"]
            check_code(code)
        except (ValueError, KeyError, TypeError) as e:
            raise Wrong(f"malformed search result: {e}") from e
        values, pmf = sort_descending([Fraction(v) for v in spec["values"]])
        if doc.get("exhaustive") is not True:
            raise Wrong("search is not exhaustive")
        if (code["m"], code["k"]) != (len(values), spec["k"]):
            raise Wrong(f"best_code has m, k = {code['m']}, {code['k']}")
        oracle = single(values, pmf, code["assignment"]).delta
        if oracle != best:
            raise Wrong(f"best_delta_exact = {best}, but best_code's advantage is {oracle}")
        if doc.get("best_delta") != float(best):
            raise Wrong(f"best_delta = {doc.get('best_delta')!r}, expected {float(best)!r}")
        self.search_best[job.id] = best
        twin = spec.get("twin")
        if twin is not None:
            theirs = self.search_best.get(twin)
            if theirs is None:
                raise Wrong(f"twin {twin} has no checked result to compare with")
            if spec["relation"] == "equal" and best != theirs:
                raise Wrong(f"best_delta_exact {best} differs from twin's {theirs}")
            if spec["relation"] == "no-better" and best < theirs:
                raise Wrong(f"best_delta_exact {best} beats the twin's default-range {theirs}")

    def _system(self, spec: dict) -> tuple[Exact, dict]:
        config = json.loads(_read(self.workdir, spec["config"]))
        sources = [source_numbers(src) for src in config["sources"]]
        codes = [_code(self.workdir, name) for name in config["codes"]]
        comps = [[[Fraction(t) for t in table] for table in term]
                 for term in config["function"]["components"]]
        ex = composed(sources, [c["assignment"] for c in codes], comps)
        m = 1
        for values, _ in sources:
            m *= len(values)
        return ex, {"m": m, "k": sum(c["k"] for c in codes), "alg": "compose", "seed": "na"}

    def _compose(self, job, stdout: str) -> None:
        ex, fields = self._system(job.spec)
        (row,) = parse_csv(stdout, REPORT_COLUMNS)
        check_report_row(row, ex, job.spec["exact"], fields)

    def _simulate_system(self, job, stdout: str) -> None:
        ex, _ = self._system(job.spec)
        check_sim_row(stdout, ex, job.spec["exact"], job.spec["trials"], job.spec["seed"])
