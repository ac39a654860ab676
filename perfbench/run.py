"""immom benchmark: exact fourth moments, J(lambda) and Monte Carlo, timed
end to end and per layer.

    python3 perfbench/run.py                        # all workloads, end to end
    python3 perfbench/run.py --workload fourth_n5 --seed 3 --trace 0
    python3 perfbench/run.py --workload verify_n5 --seed 3 --trace 1

Run from anywhere inside a checkout; immom is imported from the checkout's
``src``.  Each workload runs in a fresh process (``workloads.py``) and does a
fixed amount of work, so ``--seconds`` is only recorded.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json; ``--trace 1`` runs the
workload once untraced and once traced, checks that both give identical
results, and reports the per-layer metrics with the tracing overhead.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from hashlib import sha256
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5  # before and again after the workload
RUN_LIMIT_S = 170  # a run must end within 180 s


class BenchError(Exception):
    pass


def child_env(workload):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(var, None)
    if workload == "verify_n5":
        # pool workers are forked from this process, so each gets one thread
        env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def run_child(cmd, env, deadline):
    """Run ``cmd`` in its own process group; kill the group at the deadline."""
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{cmd[1:3]} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1:3]} exited with status {proc.returncode}")
    return out


def setup_seconds(count, deadline):
    """Wall times of fresh interpreters that import immom."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        run_child([sys.executable, "-c", "import immom"], child_env(None), deadline)
        times.append(time.perf_counter() - t0)
    return times


def run_workload(workload, seed, deadline, spool=None):
    cmd = [sys.executable, str(HERE / "workloads.py"), workload, "--seed", str(seed)]
    if spool:
        cmd += ["--spool", spool]
    out = run_child(cmd, child_env(workload), deadline)
    return json.loads(out.strip().splitlines()[-1])


def source_revision():
    """Git revision when the checkout is a repository, and always a digest
    of the package sources, which identifies the code in a plain copy."""
    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = sha256()
    for path in sorted((SRC / "immom").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return rev, digest.hexdigest()[:16]


def header(args, record):
    rev, digest = source_revision()
    return {**record["machine"], "git_revision": rev, "source_sha256": digest,
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def end_to_end(workload, seed, deadline):
    # half the set-ups before the workload and half after, so that one burst
    # of load from outside this process cannot cover all of them
    setups = setup_seconds(SETUP_REPEATS, deadline)
    rec = run_workload(workload, seed, deadline)
    setup = statistics.median(setups + setup_seconds(SETUP_REPEATS, deadline))
    values = {"setup_s": setup, "first_s": rec["first_s"], "total_s": rec["total_s"],
              "peak_rss_mb": rec["peak_rss_mb"]}
    named = {"setup_s": setup, **rec["named"], "peak_rss_mb": rec["peak_rss_mb"],
             "ops_failed": rec["ops_failed"], "ops_total": rec["ops_total"]}
    return rec, values, named, rec["ops_failed"] == 0


def traced(workload, seed, deadline):
    plain = run_workload(workload, seed, deadline)
    spool = tempfile.mkdtemp(prefix=".perfbench-spool-", dir=ROOT)
    try:
        rec = run_workload(workload, seed, deadline, spool=spool)
    finally:
        shutil.rmtree(spool, ignore_errors=True)
    values = dict(rec["layers"])
    values["trace.overhead_s"] = rec["total_s"] - plain["total_s"]
    identical = rec["results_sha256"] == plain["results_sha256"]
    named = {**values, "results_identical_to_untraced": identical,
             "ops_failed": rec["ops_failed"], "ops_total": rec["ops_total"]}
    for layer in rec["absent"]:
        print(f"layer absent: {layer}")
    ok = identical and rec["ops_failed"] == 0 and plain["ops_failed"] == 0
    return rec, values, named, ok


def unit_of(name, spec):
    for m in spec:
        if m["name"] == name:
            return m["unit"]
    for suffix, unit in (("_per_s", "1/s"), ("_mb", "MB"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count" if name.startswith("ops_") else ""


def metric_block(spec, values):
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise BenchError(f"no value measured for {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10,
                        help="recorded only: every workload is a fixed amount of work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "immom" / "__init__.py").is_file():
        print(f"error: no immom package under {SRC}", file=sys.stderr)
        return 2
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]
    measure = traced if args.trace else end_to_end

    results, correct, attempted, failed = {}, True, 0, 0
    for workload in workloads if args.workload == "all" else [args.workload]:
        deadline = time.monotonic() + RUN_LIMIT_S
        try:
            rec, values, named, ok = measure(workload, args.seed, deadline)
            results[workload] = metric_block(spec, values)
        except BenchError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        print(f"header {json.dumps(header(args, rec))}")
        for name, value in named.items():
            print(f"{workload} {name} = {value} {unit_of(name, spec)}".rstrip())
        if not args.trace:
            print(f"{workload} first_s is {rec['first_name']}")
        correct = correct and ok
        attempted += rec["ops_total"]
        failed += rec["ops_failed"]

    if args.workload == "all":
        metrics = {f"{w}:{k}": v for w, block in results.items() for k, v in block.items()}
    else:
        metrics = results[args.workload]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
