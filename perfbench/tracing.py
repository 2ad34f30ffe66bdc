"""Span tracing for the benchmark's traced runs.

Spans are recorded from this file only: ``install`` replaces the names one
insdel module uses to call another module's public functions with timing
wrappers, and ``uninstall`` puts the originals back. A call counts only
when it crosses into another module; a call that a module makes into
itself runs unwrapped, so a span's children are the calls it makes into
other layers.

Two kinds of record keep memory bounded:

- a span (name, layer, start, end, parent) for each coarse call, such as
  one CLI job, one ``construct_l1`` or one ``exact_iq``;
- a roll-up on the innermost open span for calls made once per element
  (the LCS kernel, field and residue arithmetic, polynomial steps): call
  count, summed duration and, for the LCS kernel, the cells |u|*|v|.

A span's self time is its duration minus the durations of its child
spans and roll-ups; calls within one thread never overlap, so the sum is
the covered time.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
from time import perf_counter_ns

LCS = "words.lcs"
FIELD_PRIME = "gf.field_prime"
FIELD_EXT = "gf.field_ext"
RESIDUE = "gf.residue"
LINALG = "gf.linalg"
AFFINE_MAP = "rs.affine_map"
COMPOSITION = "cw_l1.composition"

# Per-layer metric names and units, in the order they are reported.
LAYER_METRICS = {
    "words.lcs_calls": "count",
    "words.lcs_cells": "count",
    "words.lcs_s": "s",
    "words.lcs_ns_per_cell": "ns",
    "rs.sweep_pairs": "count",
    "rs.sweep_s": "s",
    "rs.criterion_maps": "count",
    "rs.criterion_s": "s",
    "rs.construct_s": "s",
    "rs.witness_s": "s",
    "bounds.adjacency_pairs": "count",
    "bounds.adjacency_s": "s",
    "bounds.clique_s": "s",
    "cw_l1.compositions": "count",
    "cw_l1.self_s": "s",
    "cw_l1.us_per_composition": "us",
    "cw_l1.kept_ratio": "ratio",
    "gf.field_ops": "count",
    "gf.field_s": "s",
    "gf.ext_field_s": "s",
    "gf.residue_ops": "count",
    "gf.residue_s": "s",
    "gf.linalg_s": "s",
    "lift.pairs": "count",
    "lift.self_s": "s",
    "codefile.s": "s",
    "codefile.bytes": "bytes",
    "cli.self_ms_p50": "ms",
    "trace_overhead_ratio": "ratio",
}


class Span:
    __slots__ = ("sid", "name", "layer", "parent", "start", "end", "prev_layer", "rollup", "attrs")

    def __init__(self, sid, name, layer, parent, prev_layer):
        self.sid = sid
        self.name = name
        self.layer = layer
        self.parent = parent
        self.prev_layer = prev_layer
        self.rollup = {}
        self.attrs = {}
        self.end = None
        self.start = perf_counter_ns()

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """Spans of one process, kept in memory until ``write``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.current: Span | None = None
        self.layer: str | None = None
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------

    def open(self, name: str, layer: str) -> Span:
        span = Span(len(self.spans), name, layer, self.current, self.layer)
        self.spans.append(span)
        self.current = span
        self.layer = layer
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter_ns()
        self.current = span.parent
        self.layer = span.prev_layer

    def count(self, name: str, ns: int, cells: int = 0) -> None:
        rec = self.current.rollup.get(name)
        if rec is None:
            rec = self.current.rollup[name] = [0, 0, 0]
        rec[0] += 1
        rec[1] += ns
        rec[2] += cells

    # -- wrappers -----------------------------------------------------

    def span_call(self, name, layer, fn, note=None):
        tr = self

        def traced(*args, **kwargs):
            if tr.layer == layer:
                return fn(*args, **kwargs)
            span = tr.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.close(span)
            if note is not None:
                note(span.attrs, args, result)
            return result

        return traced

    def rollup_call(self, name, layer, fn):
        tr = self

        def traced(*args, **kwargs):
            prev = tr.layer
            if prev == layer:
                return fn(*args, **kwargs)
            tr.layer = layer
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                tr.layer = prev
                tr.count(name, dt)

        return traced

    def field_call(self, fn):
        """Roll-up for FieldCtx arithmetic, split by prime/extension field."""
        tr = self

        def traced(ctx, *args):
            prev = tr.layer
            if prev == "gf":
                return fn(ctx, *args)
            tr.layer = "gf"
            t0 = perf_counter_ns()
            try:
                return fn(ctx, *args)
            finally:
                dt = perf_counter_ns() - t0
                tr.layer = prev
                tr.count(FIELD_EXT if ctx.m > 1 else FIELD_PRIME, dt)

        return traced

    def lcs_call(self, fn):
        """The LCS kernel is counted on every call, also from inside words."""
        tr = self

        def traced(a, b):
            t0 = perf_counter_ns()
            r = fn(a, b)
            dt = perf_counter_ns() - t0
            tr.count(LCS, dt, len(a) * len(b))
            return r

        return traced

    def counted_call(self, name, fn):
        tr = self

        def traced(*args, **kwargs):
            tr.count(name, 0)
            return fn(*args, **kwargs)

        return traced

    def counted_items(self, name, fn):
        tr = self

        def traced(*args, **kwargs):
            for item in fn(*args, **kwargs):
                tr.count(name, 0)
                yield item

        return traced

    # -- installation -------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        """Replace owner.attr by make(original); classmethods stay classmethods."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, new)

    def install(self) -> None:
        # The package re-exports the function ``lift`` over its module name.
        bounds, cli, codefile, cw_l1, gf, lift, rs, words = (
            importlib.import_module(f"insdel.{name}")
            for name in ("bounds", "cli", "codefile", "cw_l1", "gf", "lift", "rs", "words")
        )

        lcs = self.lcs_call(words.lcs_length_raw)
        for mod in (words, rs):
            self.patch(mod, "lcs_length_raw", lambda _fn: lcs)

        def span(name, layer, note=None):
            return lambda fn: self.span_call(name, layer, fn, note)

        calls = [
            (cli, "construct_l1", span("cw_l1.construct", "cw_l1", _note_kept)),
            (cli, "lift", span("lift.lift", "lift", _note_pairs)),
            (cli, "insdel_distance", span("words.distance", "words")),
            (cli, "check_rs2_criterion", span("rs.criterion", "rs")),
            (cli, "construct_rs2", span("rs.construct", "rs")),
            (cli, "low_distance_witness", span("rs.witness", "rs")),
            (cli, "rs_exhaustive_insdel", span("rs.sweep", "rs")),
            (cli, "exact_iq", span("bounds.exact_iq", "bounds")),
            (cli, "counterexample_code", span("bounds.counterexample", "bounds")),
            (codefile, "load", span("codefile.load", "codefile", _note_path)),
            (codefile, "dump", span("codefile.dump", "codefile", _note_path)),
            (rs, "det", span("gf.linalg", "gf")),
            (rs, "nullspace", span("gf.linalg", "gf")),
        ]
        for name in ("size_upper_bound", "levenshtein_lower_bound", "singleton_bound"):
            calls.append((cli, name, span("bounds.formula", "bounds")))
        for mod in (cli, lift, bounds):
            calls.append((mod, "code_min_distance", span("words.min_distance", "words")))
        for mod, name in ((cli, "field_from_size"), (cw_l1, "field_make"), (rs, "field_make")):
            calls.append((mod, name, span("gf.make", "gf")))
        for name in ("add", "sub", "neg", "mul", "inv", "div", "pow"):
            calls.append((gf.FieldCtx, name, self.field_call))

        def rollup(name):
            return lambda fn: self.rollup_call(name, "gf", fn)

        for owner, names in (
            (gf.ResidueCtx, ("reduce", "one", "linear_power")),
            (gf.UnitResidue, ("__mul__", "__pow__")),
        ):
            calls += [(owner, n, rollup(RESIDUE)) for n in names]
        for owner, names in (
            (gf.Polynomial, ("__call__", "__add__", "__sub__", "__mul__", "__divmod__", "scale")),
            (gf.Matrix, ("from_rows", "__mul__")),
        ):
            calls += [(owner, n, rollup(LINALG)) for n in names]
        calls.append((rs, "affine_through", lambda fn: self.counted_call(AFFINE_MAP, fn)))
        calls.append((cw_l1, "compositions_colex", lambda fn: self.counted_items(COMPOSITION, fn)))
        for owner, attr, make in calls:
            self.patch(owner, attr, make)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- output -------------------------------------------------------

    def write(self, path, spans) -> None:
        """Write spans as JSON lines: one object per span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            for s in spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.sid,
                            "name": s.name,
                            "parent": s.parent.sid if s.parent else None,
                            "start_ns": s.start,
                            "end_ns": s.end,
                            "rollup": s.rollup,
                            "attrs": {k: v for k, v in s.attrs.items() if k != "path"},
                        }
                    )
                    + "\n"
                )


def _note_kept(attrs, args, result):
    attrs["kept"] = result[1]["size"]


def _note_pairs(attrs, args, result):
    attrs["pairs"] = result[1]["pairs"]


def _note_path(attrs, args, result):
    attrs["path"] = args[-1]


def note_file_sizes(spans) -> None:
    """Record codefile byte counts; call while the files still exist."""
    for s in spans:
        if s.name.startswith("codefile.") and "path" in s.attrs:
            s.attrs["bytes"] = os.path.getsize(s.attrs["path"])


TIME_UNITS = {"s", "ms", "us", "ns"}


def layer_metrics(spans, speed_scale: float = 1.0) -> dict[str, float]:
    """Per-layer metrics of one traced pass (without trace_overhead_ratio).

    Times are multiplied by speed_scale, the pass's ratio of job time at
    reference speed to raw job time (see speed.py).
    """
    child_ns = {}
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent.sid] = child_ns.get(s.parent.sid, 0) + s.duration

    def self_ns(s):
        return s.duration - child_ns.get(s.sid, 0) - sum(r[1] for r in s.rollup.values())

    def total(names, key, index):
        return sum(
            s.rollup[key][index] for s in spans if s.name in names and key in s.rollup
        )

    everywhere = {s.name for s in spans}
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def dur(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def selfs(name):
        return sum(self_ns(s) for s in by_name.get(name, ()))

    lcs_calls, lcs_ns, lcs_cells = (total(everywhere, LCS, i) for i in range(3))
    comps = total({"cw_l1.construct"}, COMPOSITION, 0)
    kept = sum(s.attrs.get("kept", 0) for s in by_name.get("cw_l1.construct", ()))
    cli_self = [self_ns(s) for s in by_name.get("cli.main", ())]
    m = {
        "words.lcs_calls": lcs_calls,
        "words.lcs_cells": lcs_cells,
        "words.lcs_s": lcs_ns / 1e9,
        "words.lcs_ns_per_cell": lcs_ns / lcs_cells if lcs_cells else 0.0,
        "rs.sweep_pairs": total({"rs.sweep"}, LCS, 0),
        "rs.sweep_s": dur("rs.sweep") / 1e9,
        "rs.criterion_maps": total({"rs.criterion"}, AFFINE_MAP, 0),
        "rs.criterion_s": dur("rs.criterion") / 1e9,
        "rs.construct_s": dur("rs.construct") / 1e9,
        "rs.witness_s": dur("rs.witness") / 1e9,
        "bounds.adjacency_pairs": total({"bounds.exact_iq"}, LCS, 0),
        "bounds.adjacency_s": total({"bounds.exact_iq"}, LCS, 1) / 1e9,
        "bounds.clique_s": selfs("bounds.exact_iq") / 1e9,
        "cw_l1.compositions": comps,
        "cw_l1.self_s": selfs("cw_l1.construct") / 1e9,
        "cw_l1.us_per_composition": dur("cw_l1.construct") / comps / 1e3 if comps else 0.0,
        "cw_l1.kept_ratio": kept / comps if comps else 0.0,
        "gf.field_ops": total(everywhere, FIELD_PRIME, 0) + total(everywhere, FIELD_EXT, 0),
        "gf.field_s": (
            total(everywhere, FIELD_PRIME, 1) + total(everywhere, FIELD_EXT, 1) + dur("gf.make")
        )
        / 1e9,
        "gf.ext_field_s": total(everywhere, FIELD_EXT, 1) / 1e9,
        "gf.residue_ops": total(everywhere, RESIDUE, 0),
        "gf.residue_s": total(everywhere, RESIDUE, 1) / 1e9,
        "gf.linalg_s": (total(everywhere, LINALG, 1) + dur("gf.linalg")) / 1e9,
        "lift.pairs": sum(s.attrs.get("pairs", 0) for s in by_name.get("lift.lift", ())),
        "lift.self_s": selfs("lift.lift") / 1e9,
        "codefile.s": (dur("codefile.load") + dur("codefile.dump")) / 1e9,
        "codefile.bytes": sum(
            s.attrs.get("bytes", 0) for n in ("codefile.load", "codefile.dump") for s in by_name.get(n, ())
        ),
        "cli.self_ms_p50": statistics.median(cli_self) / 1e6 if cli_self else 0.0,
    }
    return {k: v * speed_scale if LAYER_METRICS[k] in TIME_UNITS else v for k, v in m.items()}
