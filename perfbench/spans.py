"""Span recorder that times the coxmra layers from outside the library.

`Tracer.install` wraps public functions at the module attribute where
their callers look them up (``coxmra.predict.estimate_all`` is the name
``loo_validate`` calls, ``coxmra.estimator.estimate_all`` the one the CLI
calls).  Every call then records one span: name, start, end, parent span
and run id.  Spans stay in memory until `write` is called.  Span names
use the form ``module.function``.

A call made from a worker thread that has no open span of its own gets
the innermost open span of the main thread as its parent: the only
thread pools in the pipeline are started by code running under such a
span.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# metrics that count work; they must repeat exactly between repetitions
COUNT_METRICS = (
    "estimator.fits",
    "estimator.pairs",
    "estimator.seed_evals",
    "estimator.pattern_evals",
    "estimator.near_boundary",
    "spectral.fdft_calls",
    "spectral.fdft_bytes",
    "predict.folds",
    "predict.loo_fits",
    "predict.fit_reuse",
    "sarh.calls",
    "grids.bytes_written",
    "grids.bytes_read",
    "cox.cells",
    "ingest.records",
    "ingest.targets",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "info")

    def __init__(self, name, parent, run):
        self.name = name
        self.parent = parent
        self.run = run
        self.info = {}
        self.start = self.end = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run = None
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._patched = []
        self._candidates = {}

    def _stack(self) -> list[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sp = Span(name, parent, self.run)
        stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            self.spans.append(sp)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace owner.attr by a traced version; `after(span, args,
        kwargs, result)` records sizes once the span has closed."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as sp:
                result = original(*args, **kwargs)
            if after is not None:
                after(tracer, sp, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def install(self) -> None:
        from coxmra import cli, cox, estimator, grids, ingest, sarh, wavelet

        predict = importlib.import_module("coxmra.predict")

        table = (
            (sarh, "simulate", "sarh.simulate", None),
            (grids, "detrend", "grids.detrend", None),
            (grids, "save_field", "grids.save_field", _file_size("bytes_written", 1)),
            (grids, "load_field", "grids.load_field", _file_size("bytes_read", 0)),
            (wavelet, "field_dwt", "wavelet.field_dwt", None),
            (predict, "field_dwt", "wavelet.field_dwt", None),
            (predict, "idwt", "wavelet.idwt", None),
            (estimator, "all_periodograms", "spectral.all_periodograms", _fdft_info),
            (estimator, "estimate_all", "estimator.estimate_all", _fit_info),
            (predict, "estimate_all", "estimator.estimate_all", _fit_info),
            (predict, "predict", "predict.predict", None),
            (cli, "predict_field", "predict.predict", None),
            (predict, "loo_validate", "predict.loo_validate", _loo_info),
            (cli, "loo_validate", "predict.loo_validate", _loo_info),
            (cox, "intensity", "cox.intensity", None),
            (cox, "integrated_intensity", "cox.integrated_intensity", None),
            (cox, "sample_counts", "cox.sample_counts", _cells_info),
            (cox, "save_counts", "cox.save_counts", None),
            (ingest, "ingest_counts", "ingest.ingest_counts", None),
            (ingest, "read_count_records", "ingest.read_count_records", _records_info),
            (ingest, "idw_interpolate", "ingest.idw_interpolate", _targets_info),
            (ingest, "resample_time", "ingest.resample_time", None),
        )
        for owner, attr, name, after in table:
            self.wrap(owner, attr, name, after)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def n_candidates(self, domain) -> int:
        if domain not in self._candidates:
            self._candidates[domain] = int(domain.candidates().shape[0])
        return self._candidates[domain]

    def write(self, path) -> None:
        """All spans as NDJSON, ordered by start time; times in seconds
        relative to the first span."""
        spans = sorted(self.spans, key=lambda s: s.start)
        ids = {id(s): i for i, s in enumerate(spans)}
        t0 = spans[0].start if spans else 0.0
        with open(path, "w") as fh:
            for i, s in enumerate(spans):
                rec = {
                    "id": i,
                    "name": s.name,
                    "start": s.start - t0,
                    "end": s.end - t0,
                    "parent": ids.get(id(s.parent)),
                    "run": s.run,
                    "info": s.info,
                }
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# size and count hooks, run after the span has closed


def _file_size(key, pos):
    def hook(tracer, sp, args, kwargs, result):
        sp.info[key] = os.path.getsize(args[pos])

    return hook


def _fdft_info(tracer, sp, args, kwargs, result):
    sp.info["bytes"] = int(args[0].nbytes + result.nbytes)


def _fit_info(tracer, sp, args, kwargs, result):
    coeffs = args[0]
    domain = args[1] if len(args) > 1 else kwargs["domain"]
    pairs = len(result.estimates)
    sp.info.update(
        pairs=pairs,
        seed_evals=tracer.n_candidates(domain) * pairs,
        pattern_evals=sum(e.iterations for e in result.estimates),
        near_boundary=sum(e.near_boundary for e in result.estimates),
        input=hashlib.sha256(coeffs.coeffs.tobytes()).hexdigest()[:16],
    )


def _loo_info(tracer, sp, args, kwargs, result):
    sp.info["folds"] = len(result.folds)


def _cells_info(tracer, sp, args, kwargs, result):
    sp.info["cells"] = int(result.counts.size)


def _records_info(tracer, sp, args, kwargs, result):
    sp.info["records"] = int(result[1].size)


def _targets_info(tracer, sp, args, kwargs, result):
    sp.info["targets"] = int(args[2].shape[0])


# ---------------------------------------------------------------------------
# per-layer metrics


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, cursor = 0.0, s.start
        for a, b in sorted(children[id(s)]):
            a, b = max(a, cursor), min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        out[id(s)] = (s.end - s.start) - covered
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one repetition's spans."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    own = self_times(spans)

    def total(*names):
        return sum(s.end - s.start for n in names for s in by_name[n])

    def self_total(*names):
        return sum(own[id(s)] for n in names for s in by_name[n])

    def info(name, key):
        return sum(s.info.get(key, 0) for s in by_name[name])

    fits = by_name["estimator.estimate_all"]
    loo_ids = {id(s) for s in by_name["predict.loo_validate"]}
    loo_fits = [s for s in fits if id(s.parent) in loo_ids]
    fit_s = total("estimator.estimate_all")
    seed_evals = info("estimator.estimate_all", "seed_evals")
    pattern_evals = info("estimator.estimate_all", "pattern_evals")
    sample_s = total("cox.sample_counts")
    cells = info("cox.sample_counts", "cells")
    cli_names = ("cli.simulate", "cli.counts", "cli.ingest")
    return {
        "estimator.fit_s": fit_s,
        "estimator.self_s": self_total("estimator.estimate_all"),
        "estimator.fits": len(fits),
        "estimator.pairs": info("estimator.estimate_all", "pairs"),
        "estimator.seed_evals": seed_evals,
        "estimator.pattern_evals": pattern_evals,
        "estimator.evals_per_s": (seed_evals + pattern_evals) / fit_s if fit_s else 0.0,
        "estimator.near_boundary": info("estimator.estimate_all", "near_boundary"),
        "spectral.fdft_s": total("spectral.all_periodograms"),
        "spectral.fdft_calls": len(by_name["spectral.all_periodograms"]),
        "spectral.fdft_bytes": info("spectral.all_periodograms", "bytes"),
        "predict.loo_s": total("predict.loo_validate"),
        "predict.loo_self_s": self_total("predict.loo_validate"),
        "predict.folds": info("predict.loo_validate", "folds"),
        "predict.loo_fits": len(loo_fits),
        "predict.fit_reuse": (
            len({s.info["input"] for s in loo_fits}) / len(loo_fits) if loo_fits else 0.0
        ),
        "predict.predict_s": total("predict.predict"),
        "sarh.simulate_s": total("sarh.simulate"),
        "sarh.calls": len(by_name["sarh.simulate"]),
        "grids.save_s": total("grids.save_field"),
        "grids.load_s": total("grids.load_field"),
        "grids.bytes_written": info("grids.save_field", "bytes_written"),
        "grids.bytes_read": info("grids.load_field", "bytes_read"),
        "grids.detrend_s": total("grids.detrend"),
        "wavelet.dwt_s": total("wavelet.field_dwt"),
        "wavelet.idwt_s": total("wavelet.idwt"),
        "cox.intensity_s": total("cox.intensity", "cox.integrated_intensity"),
        "cox.sample_s": sample_s,
        "cox.save_counts_s": total("cox.save_counts"),
        "cox.cells": cells,
        "cox.cells_per_s": cells / sample_s if sample_s else 0.0,
        "ingest.read_s": total("ingest.read_count_records"),
        "ingest.idw_s": total("ingest.idw_interpolate"),
        "ingest.resample_s": total("ingest.resample_time"),
        "ingest.records": info("ingest.read_count_records", "records"),
        "ingest.targets": info("ingest.idw_interpolate", "targets"),
        "cli.simulate_s": total("cli.simulate"),
        "cli.counts_s": total("cli.counts"),
        "cli.ingest_s": total("cli.ingest"),
        "cli.self_s": self_total(*cli_names),
    }


def combine(per_rep: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of each timing over repetitions; counts taken from the first
    repetition.  Returns the metrics and the counts that did not repeat."""
    out, unstable = {}, []
    for key in per_rep[0]:
        values = [m[key] for m in per_rep]
        if key in COUNT_METRICS:
            out[key] = values[0]
            if any(v != values[0] for v in values):
                unstable.append(key)
        else:
            out[key] = statistics.median(values)
    return out, unstable
