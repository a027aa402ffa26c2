"""Span tracing for the traced run, recorded from outside the library.

Each traced public function is replaced by a wrapper that records a span:
name, start, end, parent span and job id.  The wrapper is bound in place of
every attribute of every ``qproduct`` module that holds the original
function, because ``min_distance`` and the others are imported by name into
``cli``, ``quantum``, ``product``, ``cyclic`` and ``convolutional``; a call
through a name left unbound would escape its span.  Methods are wrapped on
their class.  No library source changes.

A span's self time is its duration minus the time its child spans cover.
Spans stay in memory and are written out once, when the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import json
import statistics
import sys
import time
from pathlib import Path

PIPELINES = ("hamming-dual-chain", "binary-product-chain", "hermitian-chain", "additive-chain",
             "tail-biting", "conv-bands", "rs-product-grid", "rate-comparison")


def _code_arg(args, kwargs):
    return kwargs["code"] if "code" in kwargs else args[0]


def _scan_name(code) -> str:
    return "code.scan.p2" if code.spec.p == 2 else "code.scan.podd"


def _certificate(args, kwargs, cert):
    """min_distance either enumerates the code or searches for low weights."""
    code = _code_arg(args, kwargs)
    if cert.lower_method == "exhaustive":
        words = 0 if cert.degenerate else code.size()
        return _scan_name(code), words, hash(code)
    return "code.search.cert", int(cert.exact), None


def _enumerator(args, kwargs, counts):
    code = _code_arg(args, kwargs)
    words = code.size() if code.size() > 1 else 0
    return _scan_name(code), words, hash(code)


def _field_build(args, kwargs, _):
    # odd-characteristic fields carry a q*q add table; absent means none built
    return "galois.field_build", len(getattr(args[0], "_add_table", None) or ()), None


def _rref_cells(args, kwargs, _):
    m = args[0]
    return "matrix.rref", m.nrows * m.ncols, None


# (module, attribute, span name, classifier); a classifier maps the call and
# its result to (span name, work count, code key)
TRACED = (
    ("galois", "FieldSpec.__init__", "galois.field_build", _field_build),
    ("matrix", "Matrix.rref", "matrix.rref", _rref_cells),
    ("matrix", "Matrix.kernel", "matrix.kernel", None),
    ("matrix", "Matrix.kronecker", "matrix.kronecker", None),
    ("matrix", "Matrix.gram", "matrix.gram", None),
    ("code", "min_distance", "code.search.cert", _certificate),
    ("code", "weight_enumerator", "code.scan.partial", _enumerator),
    ("code", "distance_at_least", "code.search", None),
    ("code", "find_low_weight_word", "code.search", None),
    ("code", "LinearCode.dual", "code.dual", None),
    ("code", "AdditiveCode.symplectic_dual", "code.dual", None),
    ("product", "product", "product.build", None),
    ("product", "product_additive", "product.build", None),
    ("product", "dual_of_product_generator", "product.dual_generator", None),
    ("product", "dual_distance_ceiling", "product.ceiling", None),
    ("cyclic", "rs_product_dual_certificate", "cyclic.rs_cert", None),
    ("cyclic", "rs_product_params", "cyclic.rs_params", None),
    ("quantum", "css_qecc", "quantum.qecc", None),
    ("quantum", "hermitian_qecc", "quantum.qecc", None),
    ("quantum", "symplectic_qecc", "quantum.qecc", None),
    ("quantum", "rs_prod_qecc", "quantum.qecc", None),
    ("quantum", "stabilizer_distance", "quantum.stabilizer", None),
    ("convolutional", "conv_from_product", "convolutional.band", None),
    ("convolutional", "check_band_self_orthogonal", "convolutional.band", None),
    ("convolutional", "band_window", "convolutional.band", None),
    ("convolutional", "band_window_factorization_ok", "convolutional.band", None),
    ("convolutional", "tail_biting", "convolutional.tail_biting", None),
    ("convolutional", "tail_biting_qecc", "convolutional.tail_biting", None),
    ("convolutional", "free_distance_upper_bound", "convolutional.free_distance", None),
    ("catalog", "parse_descriptor", "catalog.parse", None),
    ("catalog", "simplex", "catalog.parse", None),
    ("catalog", "hamming", "catalog.parse", None),
    ("catalog", "hamming_dual", "catalog.parse", None),
    ("catalog", "quaternary_hamming_dual_5", "catalog.parse", None),
)
# codewords_of_weight is a generator: each next() is one partial-scan span
TRACED_GENERATORS = (("code", "codewords_of_weight", "code.scan.partial"),)

# per-layer metric: (name, unit, better); values are per pass, except the
# galois ones, which also cover the traced set-up where fields are built.
# Times are self times, except cli.pipeline.*, which are whole durations.
PER_LAYER = (
    ("galois.field_build.calls", "count", "lower"),
    ("galois.field_build.s", "s", "lower"),
    ("galois.add_table.entries", "entries", "lower"),
    ("matrix.rref.calls", "count", "lower"),
    ("matrix.rref.s", "s", "lower"),
    ("matrix.rref.cells", "cells", "lower"),
    ("matrix.kernel.calls", "count", "lower"),
    ("matrix.kernel.s", "s", "lower"),
    ("matrix.kronecker.s", "s", "lower"),
    ("matrix.gram.s", "s", "lower"),
    ("code.scan.words", "words", "lower"),
    ("code.scan.s", "s", "lower"),
    ("code.scan.words_per_s.p2", "words/s", "higher"),
    ("code.scan.words_per_s.podd", "words/s", "higher"),
    ("code.scan.redundancy", "ratio", "lower"),
    ("code.search.calls", "count", "lower"),
    ("code.search.s", "s", "lower"),
    ("code.search.exact_share", "ratio", "higher"),
    ("code.dual.calls", "count", "lower"),
    ("code.dual.s", "s", "lower"),
    ("product.build.s", "s", "lower"),
    ("product.dual_generator.s", "s", "lower"),
    ("product.ceiling.s", "s", "lower"),
    ("cyclic.rs_cert.calls", "count", "lower"),
    ("cyclic.rs_cert.s", "s", "lower"),
    ("cyclic.rs_params.s", "s", "lower"),
    ("quantum.qecc.calls", "count", "lower"),
    ("quantum.qecc.s", "s", "lower"),
    ("quantum.stabilizer.s", "s", "lower"),
    ("convolutional.band.s", "s", "lower"),
    ("convolutional.tail_biting.s", "s", "lower"),
    ("convolutional.free_distance.s", "s", "lower"),
    ("catalog.parse.s", "s", "lower"),
    *((f"cli.pipeline.{name}.s", "s", "lower") for name in PIPELINES),
    ("cli.golden_diff.s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)


class Tracer:
    """In-memory span recorder.  ``job`` names the job the next spans belong to."""

    def __init__(self):
        # (span id, parent id, job, name, start, end, self seconds, work, code key)
        self.spans: list[tuple] = []
        self.job = "setup"
        self._stack: list[list] = []  # open spans: [id, start, seconds covered by children]
        self._last_id = 0

    def _enter(self) -> list:
        self._last_id += 1
        frame = [self._last_id, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, name: str, work: int = 0, key=None) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, start, covered = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.spans.append((span_id, parent[0] if parent else 0, self.job, name, start, end,
                           duration - covered, work, key))

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self._enter()
        try:
            yield
        finally:
            self._exit(frame, name)

    def wrap(self, fn, name: str, classify=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter()
            label, work, key = name, 0, None
            try:
                result = fn(*args, **kwargs)
                if classify is not None:
                    label, work, key = classify(args, kwargs, result)
                return result
            finally:
                tracer._exit(frame, label, work, key)

        return traced

    def wrap_generator(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = tracer._enter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._exit(frame, name)
                yield item

        return traced

    def install(self, lib) -> None:
        """Bind wrappers over the freshly imported library ``lib``."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qproduct" or n.startswith("qproduct."))]
        for module_name, attr, name, classify in TRACED:
            self._bind(modules, getattr(lib, module_name), attr,
                       lambda fn, n=name, c=classify: self.wrap(fn, n, c))
        for module_name, attr, name in TRACED_GENERATORS:
            self._bind(modules, getattr(lib, module_name), attr,
                       lambda fn, n=name: self.wrap_generator(fn, n))

    @staticmethod
    def _bind(modules, module, attr: str, make) -> None:
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__.get(method)
            if original is not None:
                setattr(cls, method, make(original))
            return
        original = getattr(module, attr, None)
        if original is None:
            return  # the library no longer has this function
        traced = make(original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)

    def write(self, path: Path, facts: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            out.write(json.dumps({"facts": facts}) + "\n")
            for span in self.spans:
                span_id, parent, job, name, start, end, self_s, work, _ = span
                out.write(json.dumps({"id": span_id, "parent": parent, "job": job, "name": name,
                                      "start": start, "end": end, "self_s": self_s,
                                      "work": work}) + "\n")

    # -- per-layer metrics ----------------------------------------------------

    def totals(self, job_prefix: str) -> tuple[dict, int]:
        """[calls, self seconds, work, seconds] per span name over the jobs with
        the prefix, and the words in the distinct codes scanned completely."""
        out: dict[str, list] = {}
        distinct: dict = {}
        for _, _, job, name, start, end, self_s, work, key in self.spans:
            if not job.startswith(job_prefix):
                continue
            agg = out.setdefault(name, [0, 0.0, 0, 0.0])
            agg[0] += 1
            agg[1] += self_s
            agg[2] += work
            agg[3] += end - start
            if key is not None and work:
                distinct[key] = work
        return out, sum(distinct.values())

    def layer_metrics(self, passes: int, overhead_share: float) -> dict:
        """Median over traced passes of each per-layer metric."""
        per_pass = [_pass_metrics(*self.totals(f"p{i}/")) for i in range(passes)]
        setup = _pass_metrics(*self.totals("setup"))
        out = {}
        for name, unit, _ in PER_LAYER:
            if name == "trace.overhead_share":
                value = overhead_share
            else:
                value = statistics.median(m[name] for m in per_pass)
                if name.startswith("galois."):
                    value += setup[name]
            out[name] = {"value": value, "unit": unit}
        return out


def _pass_metrics(t: dict, distinct_words: int) -> dict:
    def total(index, names):
        return sum(t[n][index] for n in names if n in t)

    def calls(*names):
        return total(0, names)

    def secs(*names):
        return total(1, names)

    def work(*names):
        return total(2, names)

    def rate(name):
        s = secs(name)
        return work(name) / s if s > 0 else 0.0

    words = work("code.scan.p2", "code.scan.podd")
    certs = calls("code.search.cert")
    out = {
        "galois.field_build.calls": calls("galois.field_build"),
        "galois.field_build.s": secs("galois.field_build"),
        "galois.add_table.entries": work("galois.field_build"),
        "matrix.rref.calls": calls("matrix.rref"),
        "matrix.rref.s": secs("matrix.rref"),
        "matrix.rref.cells": work("matrix.rref"),
        "matrix.kernel.calls": calls("matrix.kernel"),
        "matrix.kernel.s": secs("matrix.kernel"),
        "matrix.kronecker.s": secs("matrix.kronecker"),
        "matrix.gram.s": secs("matrix.gram"),
        "code.scan.words": words,
        "code.scan.s": secs("code.scan.p2", "code.scan.podd", "code.scan.partial"),
        "code.scan.words_per_s.p2": rate("code.scan.p2"),
        "code.scan.words_per_s.podd": rate("code.scan.podd"),
        "code.scan.redundancy": words / distinct_words if distinct_words else 0.0,
        "code.search.calls": certs,
        "code.search.s": secs("code.search.cert", "code.search"),
        "code.search.exact_share": work("code.search.cert") / certs if certs else 0.0,
        "code.dual.calls": calls("code.dual"),
        "code.dual.s": secs("code.dual"),
        "product.build.s": secs("product.build"),
        "product.dual_generator.s": secs("product.dual_generator"),
        "product.ceiling.s": secs("product.ceiling"),
        "cyclic.rs_cert.calls": calls("cyclic.rs_cert"),
        "cyclic.rs_cert.s": secs("cyclic.rs_cert"),
        "cyclic.rs_params.s": secs("cyclic.rs_params"),
        "quantum.qecc.calls": calls("quantum.qecc"),
        "quantum.qecc.s": secs("quantum.qecc"),
        "quantum.stabilizer.s": secs("quantum.stabilizer"),
        "convolutional.band.s": secs("convolutional.band"),
        "convolutional.tail_biting.s": secs("convolutional.tail_biting"),
        "convolutional.free_distance.s": secs("convolutional.free_distance"),
        "catalog.parse.s": secs("catalog.parse"),
        "cli.golden_diff.s": secs("cli.golden_diff"),
    }
    for name in PIPELINES:
        # a pipeline's whole duration, not its self time: the per-pipeline
        # share of a reproduce pass
        out[f"cli.pipeline.{name}.s"] = total(3, [f"cli.pipeline.{name}"])
    return out
