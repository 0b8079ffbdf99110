"""Spans around the CLI's calls into the library, for the traced run.

The traced run executes the same jobs in process.  Every public function the
CLI module calls into another layer is replaced, in the CLI's namespace only,
by a wrapper that records a span (name, start, end, parent) and the layer's
work counters.  ``bound_report`` is replaced by its three parts, each timed on
its own, assembled into the same report.  Nothing inside ``src/distsec`` is
touched: calls the library makes internally stay inside the caller's span
(search's completion counts as search, a simulation's posterior as
simulation).
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

LAYERS = ("cli", "model", "analysis", "encoders", "search", "multisource", "simulation")
# The public names distsec.cli imports, by layer.
ENTRY_POINTS = {
    "model": ("make_alphabet", "code_from_dict", "alphabet_from_dict"),
    "encoders": ("greedy_code", "exchange_binning", "complete_key_assignment", "identity_code"),
    "search": ("brute_force_optimal",),
    "multisource": ("joint_distortion",),
    "simulation": ("simulate",),
}
BOUND_PARTS = ("max_distortion", "delta_closed_form", "is_perfectly_secure")
SIM_BLOCK = 16384  # the package's documented simulation block size


class Recorder:
    """Spans and counters of one traced pass, kept in memory.

    A span is [name, start, end, parent index]; the job is the root span.
    ``reports`` collects, per job, the code behind every report row, which
    the checker uses for sweep rows.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.reports: dict[str, list] = {}
        self.job: str | None = None

    @contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"

        def traced(*args, **kwargs):
            self.counts[f"{layer}.calls"] += 1
            start = time.perf_counter()
            with self.span(name):
                out = fn(*args, **kwargs)
            self._count(fn.__name__, args, out, time.perf_counter() - start)
            return out

        return traced

    def _count(self, fname: str, args, out, seconds: float) -> None:
        c = self.counts
        if fname == "complete_key_assignment":
            c["encoders.edges"] += args[0].m * 2 ** args[1]
        elif fname == "brute_force_optimal":
            c["search.candidates_examined"] += out.candidates_examined
            c["search.pruned"] += out.pruned
            c["search.finished_s"] += seconds
        elif fname == "joint_distortion":
            c["multisource.joint_states"] += args[0].state_count()
        elif fname == "simulate":
            c["simulation.trials"] += args[0].trials
            c["simulation.blocks"] += -(-args[0].trials // SIM_BLOCK)

    def bound_report(self, analysis):
        """``analysis.bound_report`` from its three timed parts."""
        parts = {name: self.wrap("analysis", getattr(analysis, name)) for name in BOUND_PARTS}

        def assembled(code, alphabet, tol=1e-9):
            d_max = parts["max_distortion"](alphabet)
            delta = parts["delta_closed_form"](code, alphabet)
            spread = alphabet.spread
            if alphabet.is_uniform():
                slack = Fraction(tol) if alphabet.exact else tol
                keys = code.key_count
                bound1_ok = delta <= d_max / keys + slack * d_max
                bound2_ok = delta <= spread * spread / keys**2 + slack * spread * spread
            else:
                bound1_ok = bound2_ok = None
            secure = parts["is_perfectly_secure"](code, alphabet, tol=tol)
            self.counts["analysis.states"] += code.m * code.key_count
            self.counts["analysis.dense_cells"] += code.m * code.r
            self.reports.setdefault(self.job, []).append(code.assignment)
            return analysis.DistortionReport(
                d_max=d_max, d_ach=d_max - delta, delta=delta, spread=spread,
                bound1_ok=bound1_ok, bound2_ok=bound2_ok, perfectly_secure=secure,
            )

        return assembled


@contextmanager
def instrumented(cli, analysis, recorder: Recorder):
    """Swap the CLI module's library entry points for traced ones."""
    saved = {}
    for layer, names in ENTRY_POINTS.items():
        for name in names:
            saved[name] = getattr(cli, name)
            setattr(cli, name, recorder.wrap(layer, saved[name]))
    saved["bound_report"] = cli.bound_report
    cli.bound_report = recorder.bound_report(analysis)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """Per-layer busy time and work counters of one traced pass.

    Root (job) spans count as ``cli``: argument parsing, parsing of numbers
    and files, and output formatting.
    """
    spans = recorder.spans
    own = self_times(spans)
    busy = Counter()
    for (name, _, _, parent), t in zip(spans, own):
        busy["cli" if parent is None else name.split(".")[0]] += t
        if name.split(".")[0] in ("analysis", "encoders"):
            busy[f"{name}.self_s"] += t
    c = recorder.counts

    def per(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    metrics = {f"{layer}.busy_s": busy[layer] for layer in LAYERS}
    metrics.update({
        "model.calls": c["model.calls"],
        "analysis.calls": c["analysis.calls"],
        "analysis.max_distortion.self_s": busy["analysis.max_distortion.self_s"],
        "analysis.delta_closed_form.self_s": busy["analysis.delta_closed_form.self_s"],
        "analysis.is_perfectly_secure.self_s": busy["analysis.is_perfectly_secure.self_s"],
        "analysis.states": c["analysis.states"],
        "analysis.dense_cells": c["analysis.dense_cells"],
        "analysis.states_per_s": per(c["analysis.states"], busy["analysis"]),
        "encoders.greedy_code.self_s": busy["encoders.greedy_code.self_s"],
        "encoders.exchange_binning.self_s": busy["encoders.exchange_binning.self_s"],
        "encoders.complete_key_assignment.self_s": busy["encoders.complete_key_assignment.self_s"],
        "encoders.edges": c["encoders.edges"],
        "encoders.edges_per_s": per(c["encoders.edges"], busy["encoders.complete_key_assignment.self_s"]),
        "search.calls": c["search.calls"],
        "search.candidates_examined": c["search.candidates_examined"],
        "search.pruned": c["search.pruned"],
        "search.prune_ratio": per(c["search.pruned"], c["search.pruned"] + c["search.candidates_examined"]),
        # A search cut by its time limit reports no counts, so its time is left out.
        "search.candidates_per_s": per(c["search.candidates_examined"], c["search.finished_s"]),
        "multisource.joint_states": c["multisource.joint_states"],
        "multisource.states_per_s": per(c["multisource.joint_states"], busy["multisource"]),
        "simulation.trials": c["simulation.trials"],
        "simulation.blocks": c["simulation.blocks"],
        "simulation.trials_per_s": per(c["simulation.trials"], busy["simulation"]),
        "trace.spans": len(spans),
    })
    return metrics
