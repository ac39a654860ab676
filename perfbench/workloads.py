"""One benchmark workload in a fresh process: ``workloads.py NAME --seed N
[--spool DIR]``.

Runs the workload's fixed list of operations on immom (imported from the
checkout's ``src``), checks every result against an independent reference,
and prints one JSON record as the last line of standard output.  With
``--spool`` the calls into immom's modules are traced first (see
``tracer.py``) and the record carries per-layer numbers.

Every workload is a fixed amount of work, so two runs on one machine do the
same operations and their times compare directly.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from math import factorial

import numpy as np

from immom import characters, moments, sampler, tsum
from immom.cli import load_golden

from tracer import Tracer, self_seconds

FOURTH_COLD_SHAPE = (3, 2)
VERIFY_SHAPE = (3, 2)
VERIFY_DIMENSIONS = (5, 10, 20)
VERIFY_SAMPLES = 16 * sampler.CHUNK  # per dimension: 16 chunks, 8 per worker
VERIFY_WORKERS = os.cpu_count() or 1  # the CLI default
Z_LIMIT = 5.0


class Recorder:
    """Times operations and counts the ones that raise or give a wrong result."""

    def __init__(self):
        self.ops = []  # (label, seconds, ok)
        self.results = []  # exact text of every result, for run-to-run identity

    def op(self, label, call, check, text):
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception:  # an operation that raises is a failed operation
            seconds = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            self.ops.append((label, seconds, False))
            self.results.append(f"{label}: raised")
            return seconds, None
        seconds = time.perf_counter() - t0
        ok = bool(check(result))
        if not ok:
            print(f"wrong result: {label}: {text(result)}", file=sys.stderr)
        self.ops.append((label, seconds, ok))
        self.results.append(f"{label}: {text(result)}")
        return seconds, result


def _machine(f):
    return f.to_machine()


def fourth_n5(seed, rec):
    """``second_moment`` at n = 5, workers=1, first with an empty key cache.

    Why: this is the paper's headline exact computation at the largest size
    the default guard allows.  The first shape pays the lambda-independent
    cycle-type key build in ``tsum`` (cold); the two later shapes reuse the
    key cache and pay only the per-lambda character gather, matmul and
    bincount in ``tsum.t_histogram_vec`` (warm), so the two kernel costs are
    timed apart.  Exercises ``tsum``, ``characters`` and ``ratfun``; bypasses
    ``moments.j_pair`` and ``sampler``.  The seed picks the warm shapes from
    table1's other n = 5 rows; results are compared with the golden
    ``fourth_best`` (the corrected value for the two documented misprints).
    """
    golden = {row.lam.parts: row.fourth_best for row in load_golden()[0] if row.lam.n == 5}
    warm = random.Random(seed).sample(sorted(set(golden) - {FOURTH_COLD_SHAPE}), 2)
    times = []
    for lam in [FOURTH_COLD_SHAPE] + warm:
        seconds, _ = rec.op(
            f"second_moment{lam}", lambda: moments.second_moment(lam),
            lambda got: got == golden[lam], _machine,
        )
        times.append(seconds)
    return {"fourth_cold_s": times[0], "fourth_warm_s": statistics.median(times[1:])}


def table2(seed, rec):
    """``leading_coefficient`` for every golden table2 row through n = 9.

    Why: the rows ``immom table2 --max-n 9`` checks; all of the time is in
    ``moments.j_pair`` (composition, the ``cycle_keyer`` classifier and the
    Gram matrix).  Bypasses ``tsum.t_histogram_vec``, its key cache and
    ``sampler``, so kernel or sampler changes should not move it.  Each
    result must equal the golden ``j``.  Inputs do not depend on the seed.
    """
    for lam, j in load_golden()[1]:
        if lam.n <= 9:
            rec.op(f"leading_coefficient{lam.parts}", lambda: moments.leading_coefficient(lam),
                   lambda got: got == j, str)
    return {"table2_s": sum(s for _, s, _ in rec.ops)}


def leading_n10(seed, rec):
    """``leading_coefficient((1,)*10, limit=10)``.

    Why: the same ``moments.j_pair`` layer as ``table2`` at the size where
    memory, not time, is the limit (about 1 GB of RSS), so a row-chunked
    ``j_pair`` must show its memory gain here and no slowdown on ``table2``.
    The result must equal 10! * 11!, the column closed form.  Bypasses
    ``tsum.t_histogram_vec`` and ``sampler``.  Inputs do not depend on the seed.
    """
    expected = factorial(10) * factorial(11)
    seconds, _ = rec.op("leading_coefficient(1^10)",
                        lambda: moments.leading_coefficient((1,) * 10, limit=10),
                        lambda got: got == expected, str)
    return {"leading_n10_s": seconds}


def verify_n5(seed, rec):
    """The ``immom verify`` flow for (3, 2) at the CLI default workers = nproc.

    Why: the only workload on the two ``fork`` pools and on ``sampler``.
    ``second_moment((3,2), workers)`` fans the histogram shards out to pool
    workers, each of which rebuilds the key cache (``moments`` pool
    overhead); then ``estimate_moment`` draws a fixed number of samples at
    d = 5, 10, 20 (Haar QR, immanant, chunk merge), where a thinner QR helps
    most at d = 20.  Every process gets one BLAS thread so that threads stay
    within nproc.  The exact value must equal the golden ``fourth_best``;
    every estimate must lie within 5 standard errors of it.  The seed picks
    the Monte Carlo stream.
    """
    workers = VERIFY_WORKERS
    lam = VERIFY_SHAPE
    golden = next(row.fourth_best for row in load_golden()[0] if row.lam.parts == lam)
    exact_s, _ = rec.op(f"second_moment{lam} workers={workers}",
                        lambda: moments.second_moment(lam, workers=workers),
                        lambda got: got == golden, _machine)
    sample_s = 0.0
    for row, d in enumerate(VERIFY_DIMENSIONS):
        target = float(golden.evaluate(d))
        seconds, _ = rec.op(
            f"estimate_moment{lam} d={d}",
            lambda: sampler.estimate_moment(lam, d, 4, VERIFY_SAMPLES, seed,
                                            workers=workers, row=row),
            lambda e: e.stderr > 0 and abs(e.real - target) <= Z_LIMIT * e.stderr,
            lambda e: f"{e.real!r} +- {e.stderr!r}",
        )
        sample_s += seconds
    return {"verify_exact_s": exact_s,
            "mc_samples_per_s": len(VERIFY_DIMENSIONS) * VERIFY_SAMPLES / sample_s}


WORKLOADS = {f.__name__: f for f in (fourth_n5, table2, leading_n10, verify_n5)}
# The named metric each workload reports as first_s: its first exact
# computation in a fresh process.
FIRST = {"fourth_n5": "fourth_cold_s", "table2": "table2_s",
         "leading_n10": "leading_n10_s", "verify_n5": "verify_exact_s"}


# ---------------------------------------------------------------------------
# tracing


def install_tracer(spool_dir):
    """Wrap the calls into each layer; must run before any pool forks."""
    tr = Tracer(spool_dir)
    if not hasattr(tsum, "_KEY_CACHE"):
        tr.absent.append(("tsum", "tsum._KEY_CACHE: no cold/warm split or cache size"))

    def cache_size():
        cache = getattr(tsum, "_KEY_CACHE", {})
        return len(cache), sum(v.nbytes for v in cache.values())

    def histogram_attrs(args, kwargs, result, before):
        after = cache_size()
        return {"cold": after[0] > before[0], "entries": after[0], "bytes": after[1]}

    def workers_attr(index):
        def post(args, kwargs, result, state):
            return {"workers": kwargs.get("workers", args[index] if len(args) > index else 1)}
        return post

    def estimate_attrs(args, kwargs, result, state):
        return {"d": args[1], "samples": result.samples}

    tr.patch(moments, "t_histogram_vec", "tsum.histogram", "tsum",
             pre=cache_size, post=histogram_attrs)
    tr.patch(characters.CharacterTable, "__init__", "characters.table", "characters")
    tr.patch(moments, "_assemble_rational", "ratfun.assemble", "ratfun")
    tr.patch(moments, "_class_coefficients", "moments.class_coefficients", "moments",
             post=workers_attr(1))
    tr.patch(moments, "second_moment", "moments.second_moment", "moments")
    tr.patch(moments, "leading_coefficient", "moments.leading_coefficient", "moments")
    tr.patch(moments, "j_pair", "moments.j_pair", "moments")
    keyer = getattr(moments, "cycle_keyer", None)
    if keyer is None:
        tr.absent.append(("tsum", "moments.cycle_keyer"))
    else:
        # the classifier's code lives in tsum, so its time is tsum's
        moments.cycle_keyer = lambda m: tr.traced(keyer(m), "moments.j_pair.classify", "tsum")
    tr.patch(sampler, "estimate_moment", "sampler.estimate", "sampler", post=estimate_attrs)
    tr.patch(sampler, "_run_chunks", "sampler.run_chunks", "sampler", post=workers_attr(2))
    tr.patch(sampler, "_chunk_stats", "sampler.chunk", "sampler")
    tr.patch(sampler, "haar_batch", "sampler.haar_batch", "sampler")
    tr.patch(sampler, "immanant_batch", "sampler.immanant", "sampler")
    tr.patch(sampler, "_merge", "sampler.merge", "sampler")
    return tr


def per_layer(tr):
    """Per-layer numbers from the spans of this process and its workers."""
    spans = tr.spans()
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name, keep=lambda s: True):
        return sum(s.seconds for s in by_name.get(name, []) if keep(s))

    def pool_overhead(outer, inner):
        """Wall time of each pool call minus its children's busy time per worker."""
        busy = {}
        for s in by_name.get(inner, []):
            busy[s.cause] = busy.get(s.cause, 0.0) + s.seconds
        return sum(s.seconds - busy.get(s.sid, 0.0) / max(1, s.attrs["workers"])
                   for s in by_name.get(outer, []))

    hist = by_name.get("tsum.histogram", [])
    jp = by_name.get("moments.j_pair", [])
    out = {
        "tsum.histogram.calls": len(hist),
        "tsum.histogram.cold_s": total("tsum.histogram", lambda s: s.attrs.get("cold")),
        "tsum.histogram.warm_s": total("tsum.histogram", lambda s: not s.attrs.get("cold")),
        "tsum.key_cache.entries": max((s.attrs.get("entries", 0) for s in hist), default=0),
        "tsum.key_cache.mb": max((s.attrs.get("bytes", 0) for s in hist), default=0) / 2**20,
        "characters.table_s": total("characters.table"),
        "ratfun.assemble_s": total("ratfun.assemble"),
        "moments.class_coefficients_s": total("moments.class_coefficients"),
        "moments.pool.overhead_s": pool_overhead("moments.class_coefficients", "tsum.histogram"),
        "moments.j_pair.calls": len(jp),
        "moments.j_pair_s": total("moments.j_pair"),
        "moments.j_pair.max_s": max((s.seconds for s in jp), default=0.0),
        "moments.j_pair.classify_s": total("moments.j_pair.classify"),
        "sampler.chunks": len(by_name.get("sampler.chunk", [])),
        "sampler.haar_batch_s": total("sampler.haar_batch"),
        "sampler.immanant_s": total("sampler.immanant"),
        "sampler.merge_s": total("sampler.merge"),
        "sampler.pool.overhead_s": pool_overhead("sampler.run_chunks", "sampler.chunk"),
    }
    for d in VERIFY_DIMENSIONS:
        runs = [s for s in by_name.get("sampler.estimate", []) if s.attrs["d"] == d]
        seconds = sum(s.seconds for s in runs)
        out[f"sampler.d{d}.samples_per_s"] = (
            sum(s.attrs["samples"] for s in runs) / seconds if seconds else 0.0)
    own = self_seconds(spans)
    for layer in ("tsum", "moments", "ratfun", "characters", "sampler"):
        out[f"{layer}.self_s"] = own.get(layer, 0.0)
    out["trace.spans"] = len(spans)
    return out


# ---------------------------------------------------------------------------
# machine description


def blas_threads():
    """Threads OpenBLAS will use in this process, or None if unknown."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def openblas_version():
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spool", default=None,
                        help="trace into this directory and report per-layer numbers")
    args = parser.parse_args(argv)

    tracer = install_tracer(args.spool) if args.spool else None
    rec = Recorder()
    named = WORKLOADS[args.workload](args.seed, rec)
    usage = [resource.getrusage(who).ru_maxrss for who in
             (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    times = [s for _, s, _ in rec.ops]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "first_name": FIRST[args.workload],
        "first_s": named[FIRST[args.workload]],
        "total_s": sum(times),
        "peak_rss_mb": max(usage) / 1024,  # ru_maxrss is in KiB on Linux
        "named": named,
        "ops_total": len(rec.ops),
        "ops_failed": sum(not ok for _, _, ok in rec.ops),
        "results_sha256": hashlib.sha256("\n".join(rec.results).encode()).hexdigest(),
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": openblas_version(),
            "blas_threads": blas_threads(),
            "workers": VERIFY_WORKERS if args.workload == "verify_n5" else 1,
        },
    }
    if tracer is not None:
        record["layers"] = per_layer(tracer)
        record["absent"] = [f"{layer} ({name})" for layer, name in tracer.absent]
    print(json.dumps(record))


if __name__ == "__main__":
    main()
