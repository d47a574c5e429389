"""Per-layer tracing of qmg from outside the package.

``Tracer.installed()`` swaps wrappers in for qmg's public functions and
writer methods, in every qmg module namespace that holds them (so calls
through ``from .x import y`` aliases are seen too), and restores the
originals on exit.  Each wrapped call records a span (name, start, end,
parent) and the counters that belong to its layer.  Spans stay in memory
until the run writes them out; nothing in ``src/`` is edited.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import statistics
import sys
import time
import tracemalloc
import types
from collections import Counter

import qmg
import qmg.cli

# span name -> the callables it wraps, as (owner, attribute) pairs
TARGETS = {
    "numerics.fft": [(qmg.numerics, "fourier_q_to_p"), (qmg.numerics, "fourier_p_to_q")],
    "strategy.evaluate": [(qmg.strategy.Strategy, "evaluate")],
    "strategy.to_supply_rep": [(qmg.strategy, "to_supply_rep")],
    "strategy.sample": [(qmg.strategy, "sample")],
    # no metric of its own: it keeps the p-grid set-up out of wigner.chord_points
    "strategy.moments": [(qmg.strategy, "moments")],
    "wigner.transform": [(qmg.wigner, "wigner_transform")],
    "wigner.curves": [(qmg.wigner, "dominant_curves")],
    "wigner.closed_form": [
        (qmg.wigner, "thermal_wigner"), (qmg.wigner, "excited_wigner"), (qmg.wigner, "coherent_wigner"),
    ],
    "auction.quadrature": [(qmg.auction, "transaction_probabilities")],
    "auction.run": [(qmg.auction, "run_auction"), (qmg.auction, "mixed_polarization_auction")],
    "auction.vickrey": [(qmg.auction, "vickrey_truthfulness_check")],
    "clearing.round": [(qmg.clearing, "clear_round")],
    "clearing.fixed_point": [(qmg.clearing, "fixed_point")],
    "zeno.freeze": [(qmg.zeno, "freeze_experiment")],
    "zeno.coefficients": [(qmg.zeno, "hermite_coefficients")],
    "risk.expectation": [(qmg.risk, "risk_expectation")],
    "cli.main": [(qmg.cli, "main")],
    "cli.emit": [
        (qmg.cli.Emitter, "write_csv"),
        (qmg.wigner.PhaseSpaceDensity, "to_csv"),
        (qmg.wigner.DominantCurves, "to_csv"),
        (qmg.zeno, "freeze_table_to_csv"),
        (qmg.clearing, "round_log_to_csv"),
    ],
}

# (name, unit, better) for every per-layer metric, in report order
METRICS = [
    ("numerics.fft_calls", "count", "lower"),
    ("numerics.fft_points", "count", "lower"),
    ("numerics.fft_s", "s", "lower"),
    ("strategy.evaluate_calls", "count", "lower"),
    ("strategy.evaluate_points", "count", "lower"),
    ("strategy.evaluate_s", "s", "lower"),
    ("strategy.to_supply_rep_calls", "count", "lower"),
    ("strategy.to_supply_rep_s", "s", "lower"),
    ("strategy.supply_rep_distinct_ratio", "ratio", "higher"),
    ("strategy.sample_calls", "count", "lower"),
    ("strategy.sample_draws", "count", "lower"),
    ("strategy.sample_s", "s", "lower"),
    ("wigner.transform_calls", "count", "lower"),
    ("wigner.transform_s", "s", "lower"),
    ("wigner.chord_points", "count", "lower"),
    ("wigner.kernel_flops", "flop_computed", "lower"),
    ("wigner.transform_peak_mb", "MB", "lower"),
    ("wigner.curves_s", "s", "lower"),
    ("wigner.closed_form_s", "s", "lower"),
    ("auction.quadrature_s", "s", "lower"),
    ("auction.quadrature_evaluate_points", "count", "lower"),
    ("auction.run_s", "s", "lower"),
    ("auction.mc_draws", "count", "lower"),
    ("auction.vickrey_s", "s", "lower"),
    ("clearing.round_s", "s", "lower"),
    ("clearing.rounds", "count", "higher"),
    ("clearing.fft_calls", "count", "lower"),
    ("clearing.fixed_point_s", "s", "lower"),
    ("zeno.freeze_s", "s", "lower"),
    ("zeno.coefficients_calls", "count", "lower"),
    ("zeno.coefficients_s", "s", "lower"),
    ("zeno.basis_max", "count", "lower"),
    ("risk.expectation_calls", "count", "lower"),
    ("risk.expectation_s", "s", "lower"),
    ("cli.run_s", "s", "lower"),
    ("cli.emit_s", "s", "lower"),
    ("cli.emit_bytes", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

_SUPPLY_SIGNATURE = inspect.signature(qmg.strategy.to_supply_rep)
_SAMPLE_SIGNATURE = inspect.signature(qmg.strategy.sample)


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index, time covered by children, nested in same name]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.recording = False
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._supply_inputs: set = set()  # holds the inputs, so identity-hashed keys stay unique
        self._transform_peaks: list[float] = []

    # -- hooks run at layer boundaries --------------------------------

    def _before(self, name, parent, args, kwargs):
        c, active = self.counts, self._active
        if name == "numerics.fft":
            c["numerics.fft_calls"] += 1
            c["numerics.fft_points"] += len(args[0])
            if active["clearing.round"]:
                c["clearing.fft_calls"] += 1
        elif name == "strategy.evaluate":
            n = int(getattr(args[1], "size", 1))
            c["strategy.evaluate_calls"] += 1
            c["strategy.evaluate_points"] += n
            if parent == "wigner.transform":  # direct calls only: grid set-up runs under moments/to_supply_rep
                c["wigner.chord_points"] += n
            if active["auction.quadrature"]:
                c["auction.quadrature_evaluate_points"] += n
        elif name == "strategy.to_supply_rep":
            c["strategy.to_supply_rep_calls"] += 1
            bound = _SUPPLY_SIGNATURE.bind(*args, **kwargs)
            bound.apply_defaults()
            self._supply_inputs.add(tuple(bound.arguments.values()))
        elif name == "strategy.sample":
            bound = _SAMPLE_SIGNATURE.bind(*args, **kwargs)
            size = int(bound.arguments["size"])
            c["strategy.sample_calls"] += 1
            c["strategy.sample_draws"] += size
            if active["auction.run"] or active["auction.vickrey"]:
                c["auction.mc_draws"] += size
        elif name == "wigner.transform":
            c["wigner.transform_calls"] += 1
            chord_before = c["wigner.chord_points"]
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            tracemalloc.reset_peak()
            return chord_before, started
        elif name == "clearing.round":
            c["clearing.rounds"] += 1
        elif name == "zeno.coefficients":
            c["zeno.coefficients_calls"] += 1
        elif name == "risk.expectation":
            c["risk.expectation_calls"] += 1
        return None

    def _after(self, name, state, result):
        if name == "wigner.transform":
            chord_before, started = state
            _, peak = tracemalloc.get_traced_memory()
            if started:
                tracemalloc.stop()
            self._transform_peaks.append(peak / 1e6)
            nq, np_ = result.q_grid.n, result.p_grid.n
            n_chord = (self.counts["wigner.chord_points"] - chord_before) // (2 * nq)
            # complex kernel (np x n_chord) times chord table (n_chord x nq)
            self.counts["wigner.kernel_flops"] += 8 * np_ * n_chord * nq
        elif name == "zeno.coefficients":
            self.counts["zeno.basis_max"] = max(self.counts["zeno.basis_max"], len(result))

    # -- wrapping -----------------------------------------------------

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, 0.0, self._active[name] > 0]
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            state = self._before(name, self.spans[parent][0] if parent >= 0 else None, args, kwargs)
            self._active[name] += 1
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._active[name] -= 1
                self._stack.pop()
                if parent >= 0:
                    self.spans[parent][4] += span[2] - span[1]
            self._after(name, state, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in everywhere the originals are bound; undo on exit."""
        undo = []
        modules = [m for n, m in sys.modules.items() if n == "qmg" or n.startswith("qmg.")]
        for name, targets in TARGETS.items():
            for owner, attr in targets:
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original)
                holders = [owner] if isinstance(owner, type) else modules
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            undo.append((holder, key, value))
                            setattr(holder, key, wrapper)
        # the JSON writers in cli call json.dump through the module name
        undo.append((qmg.cli, "json", qmg.cli.json))
        qmg.cli.json = types.SimpleNamespace(
            dump=self._wrap("cli.emit", json.dump), loads=json.loads, JSONDecodeError=json.JSONDecodeError
        )
        try:
            yield self
        finally:
            for holder, key, value in reversed(undo):
                setattr(holder, key, value)

    # -- results ------------------------------------------------------

    def _durations(self, name):
        return [s[2] - s[1] for s in self.spans if s[0] == name and not s[5]]

    def _total(self, name) -> float:
        return sum(self._durations(name))

    def metrics(self, overhead_ratio: float, emit_bytes: int) -> dict:
        c = self.counts
        rounds = self._durations("clearing.round")
        supply_calls = c["strategy.to_supply_rep_calls"]
        values = {
            "numerics.fft_s": self._total("numerics.fft"),
            "strategy.evaluate_s": self._total("strategy.evaluate"),
            "strategy.to_supply_rep_s": self._total("strategy.to_supply_rep"),
            "strategy.supply_rep_distinct_ratio": (
                len(self._supply_inputs) / supply_calls if supply_calls else 1.0
            ),
            "strategy.sample_s": self._total("strategy.sample"),
            "wigner.transform_s": self._total("wigner.transform"),
            "wigner.transform_peak_mb": max(self._transform_peaks, default=0.0),
            "wigner.curves_s": self._total("wigner.curves"),
            "wigner.closed_form_s": self._total("wigner.closed_form"),
            "auction.quadrature_s": self._total("auction.quadrature"),
            "auction.run_s": self._total("auction.run"),
            "auction.vickrey_s": self._total("auction.vickrey"),
            "clearing.round_s": statistics.median(rounds) if rounds else 0.0,
            "clearing.fixed_point_s": self._total("clearing.fixed_point"),
            "zeno.freeze_s": self._total("zeno.freeze"),
            "zeno.coefficients_s": self._total("zeno.coefficients"),
            "risk.expectation_s": self._total("risk.expectation"),
            "cli.run_s": sum(s[2] - s[1] - s[4] for s in self.spans if s[0] == "cli.main"),
            "cli.emit_s": self._total("cli.emit"),
            "cli.emit_bytes": emit_bytes,
            "trace.overhead_ratio": overhead_ratio,
        }
        out = {}
        for name, unit, _ in METRICS:
            value = values[name] if name in values else c[name]
            out[name] = {"value": value, "unit": unit}
        return out

    def dump(self, path) -> None:
        """Write the spans (name, start, end, parent) and counters as JSON."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "spans": [s[:4] for s in self.spans],
                    "counts": dict(self.counts),
                },
                fh,
            )
