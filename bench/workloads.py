"""Seeded job lists for the four benchmark workloads.

Every job is one ``distsec`` command line, exactly as a user would type it,
plus what the checker needs to judge its output.  Inputs are derived from the
workload seed alone.  Every number is a dyadic rational written as an exact
decimal literal, so the float path (plain parsing) and the exact path
(``--exact``) read the same numbers and differ only in arithmetic domain.

Jobs refer to files by names relative to the work directory the runner
executes them in; ``Plan.files`` holds the generated input files.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("sweep-exact", "sweep-float", "desk-search", "composed-system")

# Limit for any job.  It only guards the run's 180 s budget; ordinary jobs
# finish in a few seconds.
JOB_LIMIT_S = 60.0
# The m=5, k=2 search sits inside the default caps, so a user may run it at
# the desk.  It gets an interactive limit: finishing later counts as failing.
CAP_EDGE_LIMIT_S = 3.0

SWEEP_K = 5
SWEEP_SIZES = (12, 32)
SWEEP_TOP_M = 96
CHAIN_M = 24
SIM_TRIALS = 1 << 17
SYSTEM_TRIALS = 1 << 16
OFFSET = 2**30


@dataclass(frozen=True)
class Job:
    """One CLI invocation.

    ``argv`` omits the ``python -m distsec.cli`` prefix.  ``spec`` carries
    the generated inputs the checker needs (JSON-serializable).
    """

    id: str
    kind: str
    argv: tuple[str, ...]
    spec: dict = field(default_factory=dict)
    limit_s: float = JOB_LIMIT_S
    top: bool = False


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    jobs: tuple[Job, ...]
    files: dict  # relative name -> text

    def dump(self) -> str:
        """Canonical serialization; equal for equal (workload, seed)."""
        return json.dumps(
            {
                "workload": self.workload,
                "seed": self.seed,
                "jobs": [job.__dict__ for job in self.jobs],
                "files": self.files,
            },
            sort_keys=True,
        )

    def write_files(self, workdir: str) -> None:
        for name, text in self.files.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)


def lit(x: Fraction) -> str:
    """Exact decimal literal of a dyadic rational."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    t = x.denominator.bit_length() - 1
    if x.denominator != 1 << t:
        raise ValueError(f"{x} is not dyadic")
    sign = "-" if x < 0 else ""
    digits = str(abs(x.numerator) * 5**t).rjust(t + 1, "0")
    return f"{sign}{digits[:-t]}.{digits[-t:]}".rstrip("0")


def _csv(xs) -> str:
    return ",".join(lit(x) for x in xs)


def _distinct(rng: random.Random, m: int, lo: int, hi: int, denom: int) -> list[Fraction]:
    """m distinct multiples of 1/denom in [lo, hi], descending."""
    picks = rng.sample(range(lo * denom, hi * denom + 1), m)
    return sorted((Fraction(p, denom) for p in picks), reverse=True)


def regular(rng: random.Random, m: int) -> list[Fraction]:
    start = Fraction(rng.randrange(0, 8)) + Fraction(1, 2)
    step = rng.choice((1, 2, 3))
    return [start + step * i for i in range(m)]


def random_with_duplicates(rng: random.Random, m: int) -> list[Fraction]:
    pool = [Fraction(rng.randrange(0, 40 * m), 4) for _ in range(max(2, 3 * m // 4))]
    values = [rng.choice(pool) for _ in range(m)]
    values[:2] = pool[:2]  # never constant
    return values


def offset_progression(m: int) -> list[Fraction]:
    return [OFFSET + i + Fraction(1, 2) for i in range(m)]


def dyadic_pmf(rng: random.Random, m: int) -> list[Fraction]:
    """Non-uniform pmf on a power-of-two grid, so it sums to exactly 1."""
    total = 1 << (m.bit_length() + 3)
    units = [1] * m
    for _ in range(total - m):
        units[rng.randrange(m)] += 1
    return [Fraction(u, total) for u in units]


def random_code(rng: random.Random, m: int, k: int, r: int) -> dict:
    """A random decodable code document: one random injection per key."""
    rows = [rng.sample(range(r), m) for _ in range(2**k)]
    return {"m": m, "k": k, "r": r, "assignment": rows}


def _code_text(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


class _PlanMaker:
    def __init__(self, workload: str, seed: int, jobs_flag: int):
        self.workload = workload
        self.seed = seed
        self.rng = random.Random(f"{workload}/{seed}")
        self.common = ("--jobs", str(jobs_flag))
        self.jobs: list[Job] = []
        self.files: dict[str, str] = {}

    def cli_seed(self) -> int:
        return self.rng.randrange(2**32)

    def add(self, id: str, kind: str, argv, spec=None, **kw) -> None:
        self.jobs.append(
            Job(id=id, kind=kind, argv=tuple(argv) + self.common, spec=spec or {}, **kw)
        )

    def plan(self) -> Plan:
        return Plan(self.workload, self.seed, tuple(self.jobs), dict(self.files))


def _values_flags(values, pmf=None) -> list[str]:
    # The "=" form keeps a leading minus sign from reading as a flag.
    flags = [f"--values={_csv(values)}"]
    if pmf is not None:
        flags.append(f"--pmf={_csv(pmf)}")
    return flags


def _alphabet_spec(values, pmf) -> dict:
    return {"values": [lit(v) for v in values], "pmf": None if pmf is None else [lit(p) for p in pmf]}


def _sweep_jobs(b: _PlanMaker, exact: bool) -> None:
    ex = ["--exact"] if exact else []
    families = []
    for m in SWEEP_SIZES:
        families.append((f"reg-{m}", regular(b.rng, m), None))
        families.append((f"rnd-{m}", random_with_duplicates(b.rng, m), None))
        families.append((f"pmf-{m}", _distinct(b.rng, m, 0, 4 * m, 4), dyadic_pmf(b.rng, m)))
        families.append((f"off-{m}", offset_progression(m), None))
    families.append((f"reg-{SWEEP_TOP_M}", regular(b.rng, SWEEP_TOP_M), None))
    for name, values, pmf in families:
        # exchange_binning needs a uniform source, so pmf alphabets sweep greedy only.
        algs = "greedy" if pmf is not None else "greedy,exchange"
        seed = b.cli_seed()
        spec = dict(_alphabet_spec(values, pmf), exact=exact, ks=list(range(SWEEP_K + 1)),
                    algs=algs.split(","), seed=seed)
        b.add(f"sweep/{name}", "sweep",
              ["sweep", *_values_flags(values, pmf), "--k", f"0..{SWEEP_K}",
               "--alg", algs, "--seed", str(seed), *ex],
              spec, top=name == f"reg-{SWEEP_TOP_M}")

    chains = [
        ("reg", regular(b.rng, CHAIN_M), None, "greedy", 2),
        ("rnd", random_with_duplicates(b.rng, CHAIN_M), None, "exchange", 3),
        ("pmf", _distinct(b.rng, CHAIN_M, 0, 4 * CHAIN_M, 4), dyadic_pmf(b.rng, CHAIN_M), "greedy", 2),
    ]
    for name, values, pmf, alg, k in chains:
        seed = b.cli_seed()
        code = f"chain-{name}.json"
        base = dict(_alphabet_spec(values, pmf), exact=exact, code=code)
        vflags = _values_flags(values, pmf)
        b.add(f"chain/{name}/encode", "encode",
              ["encode", "--alg", alg, *vflags, "--k", str(k), "--seed", str(seed), "-o", code, *ex],
              dict(base, alg=alg, k=k))
        b.add(f"chain/{name}/analyze", "analyze", ["analyze", "--code", code, *vflags, *ex], base)
        b.add(f"chain/{name}/simulate", "simulate",
              ["simulate", "--code", code, *vflags, "--trials", str(SIM_TRIALS),
               "--seed", str(seed), *ex],
              dict(base, trials=SIM_TRIALS, seed=seed))

    randoms = [
        ("rnd", random_with_duplicates(b.rng, CHAIN_M), None, 2, CHAIN_M + 7),
        ("pmf", _distinct(b.rng, CHAIN_M, 0, 4 * CHAIN_M, 4), dyadic_pmf(b.rng, CHAIN_M), 3, 2 * CHAIN_M),
    ]
    for name, values, pmf, k, r in randoms:
        code = f"random-{name}.json"
        b.files[code] = _code_text(random_code(b.rng, CHAIN_M, k, r))
        b.add(f"random/{name}/analyze", "analyze",
              ["analyze", "--code", code, *_values_flags(values, pmf), *ex],
              dict(_alphabet_spec(values, pmf), exact=exact, code=code))


def _search_jobs(b: _PlanMaker) -> None:
    kinds = ("regular", "random", "nonint")

    def alphabet(kind: str, m: int) -> list[Fraction]:
        if kind == "regular":
            return [Fraction(i) for i in range(1, m + 1)]
        if kind == "random":
            return [Fraction(b.rng.randrange(0, 10 * m)) for _ in range(m)]
        return _distinct(b.rng, m, 0, 2 * m, 4)

    ladder = [(m, 1) for m in range(2, 9)] + [(m, 2) for m in range(2, 5)]
    twins = {}
    for i, (m, k) in enumerate(ladder):
        kind = kinds[i % 3]
        values = alphabet(kind, m)
        jid = f"search/{kind}-m{m}-k{k}"
        twins[(m, k)] = (jid, values)
        b.add(jid, "search", ["search", *_values_flags(values), "--k", str(k), "--exact"],
              {"values": [lit(v) for v in values], "k": k}, top=(m, k) == (8, 1))
    # Light-bin pruning must be lossless: unpruned twins agree exactly.
    for m, k in [(3, 1), (4, 1), (5, 1), (2, 2), (3, 2)]:
        jid, values = twins[(m, k)]
        b.add(f"{jid}/no-prune", "search",
              ["search", *_values_flags(values), "--k", str(k), "--no-prune", "--exact"],
              {"values": [lit(v) for v in values], "k": k, "twin": jid, "relation": "equal"})
    # A bin-count range can only lose to the default one, and ties it when it
    # covers m..2m.
    for (m, k), (lo, hi), relation in [
        ((6, 1), (6, 12), "equal"),
        ((5, 1), (5, 6), "no-better"),
        ((3, 2), (4, 6), "no-better"),
    ]:
        jid, values = twins[(m, k)]
        b.add(f"{jid}/r{lo}-{hi}", "search",
              ["search", *_values_flags(values), "--k", str(k),
               "--r-lo", str(lo), "--r-hi", str(hi), "--exact"],
              {"values": [lit(v) for v in values], "k": k, "twin": jid, "relation": relation})
    values = alphabet("regular", 5)
    b.add("search/cap-edge-m5-k2", "search", ["search", *_values_flags(values), "--k", "2", "--exact"],
          {"values": [lit(v) for v in values], "k": 2}, limit_s=CAP_EDGE_LIMIT_S)


# (form, per-source (m, k, code origin), exact)
SYSTEMS = [
    ("pure-sum", [(8, 2, "greedy"), (8, 2, "random")], True),
    ("pure-product", [(6, 1, "random"), (6, 2, "exchange"), (5, 1, "random")], False),
    ("general-sum-of-products", [(8, 2, "random"), (6, 1, "random"), (6, 2, "greedy")], True),
    ("pure-sum", [(6, 1, "greedy"), (6, 1, "random"), (4, 2, "random"), (4, 1, "random")], False),
    ("general-sum-of-products", [(8, 2, "exchange"), (6, 1, "random"), (6, 1, "random"), (4, 1, "random")], True),
    # The top rung: library work, not interpreter start-up, sets its latency.
    ("pure-product", [(16, 2, "greedy"), (16, 2, "random"), (16, 2, "random"), (3, 0, "random")], False),
]
TOP_SYSTEM = len(SYSTEMS) - 1


def _table(rng: random.Random, m: int) -> list[Fraction]:
    return [Fraction(rng.randrange(-12, 13), 2) or Fraction(1, 2) for _ in range(m)]


def _composed_jobs(b: _PlanMaker) -> None:
    for s, (form, parts, exact) in enumerate(SYSTEMS):
        ex = ["--exact"] if exact else []
        sources, codes = [], []
        for i, (m, k, origin) in enumerate(parts):
            values = _distinct(b.rng, m, -2 * m, 2 * m, 2)
            # Exchange needs a uniform source, so only random codes get a pmf.
            pmf = dyadic_pmf(b.rng, m) if origin == "random" and i % 2 else None
            doc = {"values": [float(v) for v in values]}
            if pmf is not None:
                doc["pmf"] = [float(p) for p in pmf]
            sources.append(doc)
            code = f"sys{s}-code{i}.json"
            codes.append(code)
            if origin == "random":
                b.files[code] = _code_text(random_code(b.rng, m, k, m + m // 2))
            else:
                b.add(f"system{s}/encode{i}", "encode",
                      ["encode", "--alg", origin, *_values_flags(values, pmf), "--k", str(k),
                       "--seed", str(b.cli_seed()), "-o", code, *ex],
                      dict(_alphabet_spec(values, pmf), exact=exact, code=code, alg=origin, k=k))
        ms = [m for m, _, _ in parts]
        n = len(parts)
        if form == "pure-sum":
            comps = [[_table(b.rng, ms[i]) if i == l else [Fraction(1)] * ms[i] for i in range(n)]
                     for l in range(n)]
        elif form == "pure-product":
            comps = [[_table(b.rng, ms[i]) for i in range(n)]]
        else:
            comps = [[_table(b.rng, ms[i]) for i in range(n)] for _ in range(2 + s % 2)]
        config = {
            "version": 1,
            "sources": sources,
            "codes": codes,
            "function": {"form": form,
                         "components": [[[float(t) for t in table] for table in term] for term in comps]},
        }
        name = f"system{s}.json"
        b.files[name] = json.dumps(config, indent=1) + "\n"
        spec = {"config": name, "exact": exact}
        b.add(f"system{s}/compose", "compose", ["compose", "--config", name, *ex], spec,
              top=s == TOP_SYSTEM)
        seed = b.cli_seed()
        b.add(f"system{s}/simulate", "simulate-system",
              ["simulate", "--system", name, "--trials", str(SYSTEM_TRIALS),
               "--seed", str(seed), *ex],
              dict(spec, trials=SYSTEM_TRIALS, seed=seed))


def generate(workload: str, seed: int, jobs_flag: int) -> Plan:
    """The job list for ``workload`` under ``seed``; ``jobs_flag`` is the
    value every job passes as ``--jobs``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    b = _PlanMaker(workload, seed, jobs_flag)
    if workload in ("sweep-exact", "sweep-float"):
        # Both sweep workloads draw from one stream so they run the same numbers.
        b.rng = random.Random(f"sweep/{seed}")
        _sweep_jobs(b, exact=workload == "sweep-exact")
    elif workload == "desk-search":
        _search_jobs(b)
    else:
        _composed_jobs(b)
    return b.plan()
