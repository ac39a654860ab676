"""Batch front end: exact moment formulas, golden-table reproduction, and
Monte Carlo verification as subcommands with machine-readable output.

The parsed argument namespace is the entire run configuration; every default
is stated in the ``--help`` text and stable across releases.  Output goes to
stdout unless ``--out FILE`` is given.  ``--format`` selects plain text, JSON
(validating against the shipped ``data/report.schema.v1.json``), or CSV for
the row-oriented subcommands (``sample``, ``verify``, ``table1``, ``table2``,
``dominance``).

Every JSON payload is built by report(), the one place that stamps the
schema version; the formula modules return exact values only.

Exit status: 0 on success; 1 when a verification or golden-table comparison
fails; 2 on usage or domain errors (bad partition syntax, ``--d`` below the
block size n or below 1, evaluation at a pole, size caps exceeded without
``--limit-override``); 3 when a sampling worker process dies before
returning its result (most likely killed for lack of memory).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import dataclass
from importlib import resources

from . import __version__
from .moments import (
    LEADING_LIMIT,
    SECOND_MOMENT_LIMIT,
    det_moment,
    leading_coefficient,
    mean,
    mean_dominance_check,
    perm_fourth_conjecture,
    second_moment,
)
from .partitions import Partition, as_partition, dominance_covers, parse_partition
from .ratfun import RationalFunction
from .sampler import moment_scan
from .weingarten import weingarten


# ---------------------------------------------------------------------------
# golden data


@dataclass(frozen=True)
class Table1Row:
    """One row of the golden mean/fourth-moment table.

    ``fourth`` is the value exactly as published.  For the two rows whose
    published text carries a documented misprint, ``fourth_corrected`` holds
    the repaired value (forced by the decay law and the leading-coefficient
    table; see the note stored alongside).
    """

    lam: Partition
    mean: RationalFunction
    fourth: RationalFunction
    fourth_corrected: RationalFunction | None = None

    @property
    def fourth_best(self) -> RationalFunction:
        """The corrected value when the published one is an erratum."""
        return self.fourth if self.fourth_corrected is None else self.fourth_corrected


def load_golden():
    """Golden reference values, parsed to canonical forms.

    Returns ``(table1, table2)`` where ``table1`` is a list of
    :class:`Table1Row` and ``table2`` is a list of
    ``(partition, leading_coefficient)``.  Stored as machine-format strings
    and re-parsed here, so display-format changes cannot affect comparisons.
    """
    blob = json.loads(
        resources.files("immom").joinpath("data/golden_tables.json").read_text("utf-8")
    )
    table1 = []
    for row in blob["table1"]:
        err = row.get("fourth_erratum")
        table1.append(
            Table1Row(
                lam=Partition(row["lambda"]),
                mean=RationalFunction.parse(row["mean"]),
                fourth=RationalFunction.parse(row["fourth"]),
                fourth_corrected=(
                    RationalFunction.parse(err["corrected"]) if err else None
                ),
            )
        )
    table2 = [(Partition(row["lambda"]), int(row["j"])) for row in blob["table2"]]
    return table1, table2


# ---------------------------------------------------------------------------
# output plumbing


def rational_payload(f: RationalFunction) -> dict:
    """JSON-ready exact form: prefactor, ascending numerator coefficients,
    denominator scalar, and [offset, multiplicity] factor pairs."""
    return {
        "prefactor": f.prefactor,
        "numerator_coeffs": list(f.numer),
        "denominator_scalar": f.scalar,
        "denominator_factors": [[c, m] for c, m in f.factors.items()],
    }


def report(kind, lam=None, n=None, value=None, d=None, **fields):
    """Assemble a JSON report dict (schema version 1).

    After the kind come the shape (its parts and n) or else the block size
    n; the rational form of value; d, and the value there when there is
    one; then the trailing fields in the order given, leaving out None.
    """
    out = {"schema_version": 1, "kind": kind}
    if lam is not None:
        lam = as_partition(lam)
        out["lambda"] = list(lam.parts)
        out["n"] = lam.n
    elif n is not None:
        out["n"] = n
    if value is not None:
        out["rational"] = {**rational_payload(value), "machine": value.to_machine(),
                           "display": value.to_display()}
    if d is not None:
        out["d"] = d
        if value is not None:
            q = value.evaluate(d)
            out["value"] = f"{q.numerator}/{q.denominator}"
    out.update((k, v) for k, v in fields.items() if v is not None)
    return out


def _csv_cell(value):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, list):
        return ",".join(map(str, value))
    return value


def _emit(args, lines, payload=None, rows=None, fields=None):
    """Write text lines, the JSON payload, or CSV rows per ``--format``.

    CSV rows are the JSON rows restricted to ``fields``, with booleans as
    0/1 and lists comma-joined.
    """
    if args.format == "json":
        body = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fields, extrasaction="ignore")
        writer.writeheader()
        writer.writerows({k: _csv_cell(v) for k, v in row.items()} for row in rows)
        body = buf.getvalue()
    else:
        body = "".join(line + "\n" for line in lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


def _check_dimension(d, n):
    """An n x n block needs a unitary of size d >= n, and a unitary has d >= 1."""
    if d is not None and d < max(n, 1):
        raise ValueError(f"d must be at least n = {n}" if n else "d must be at least 1")


def _parse_d_range(text):
    """A single dimension '7' or an inclusive range '3:20'."""
    lo, hi = text.split(":", 1) if ":" in text else (text, text)
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ValueError(f"cannot parse dimension range {text!r}; use D or LO:HI") from None
    if hi < lo:
        raise ValueError(f"empty dimension range {text!r}")
    return list(range(lo, hi + 1))


def _sampling_setup(args):
    """The shape, samples per point and d grid of sample and verify."""
    lam = parse_partition(args.partition)
    samples = args.samples
    if samples is None:
        samples = 10**4 if args.power == 2 else 10**5
    elif samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    d_values = _parse_d_range(args.d)
    _check_dimension(min(d_values), lam.n)
    return lam, samples, d_values


# ---------------------------------------------------------------------------
# formula subcommands


def _closed_form(args, kind, label, f, lam=None, n=None, power=None,
                 wall_time_s=None):
    """Emit the closed form f of kind and its value at --d; the text names
    the shape lam in its label, or else the block size n after the formula.

    At every d >= n a moment's closed form is the moment itself, the fourth
    moments included (moments states the proof), so no value needs a note.
    """
    payload = report(kind, lam=lam, n=n, value=f, d=args.d, wall_time_s=wall_time_s,
                     power=power)
    lines = [f"{label} = {f.to_display()}" + ("" if lam is not None else f"  (n = {n})")]
    if args.d is not None:
        lines.append(f"at d = {args.d}: {payload['value']}")
    if wall_time_s is not None:
        lines.append(f"computed in {wall_time_s:.3f} s")
    _emit(args, lines, payload)
    return 0


def _cmd_mean(args):
    lam = parse_partition(args.partition)
    _check_dimension(args.d, lam.n)
    return _closed_form(args, "mean", f"E|Imm^({lam}) M|^2", mean(lam), lam=lam)


def _cmd_second_moment(args):
    lam = parse_partition(args.partition)
    _check_dimension(args.d, lam.n)
    t0 = time.perf_counter()
    f = second_moment(lam, limit=args.limit_override)
    return _closed_form(args, "second_moment", f"E|Imm^({lam}) M|^4", f, lam=lam,
                        wall_time_s=time.perf_counter() - t0)


def _cmd_leading(args):
    lam = parse_partition(args.partition)
    t0 = time.perf_counter()
    j = leading_coefficient(lam, limit=args.limit_override)
    payload = report(
        "leading_coefficient", lam=lam, integer=j,
        wall_time_s=time.perf_counter() - t0,
    )
    _emit(args, [f"J({lam}) = {j}"], payload)
    return 0


def _cmd_det_moment(args):
    if args.power < 0 or args.power % 2:
        raise ValueError("--power must be a nonnegative even integer (moments of |det M|^(2t))")
    _check_dimension(args.d, args.n)
    return _closed_form(args, "determinant_moment", f"E|det M|^{args.power}",
                        det_moment(args.n, args.power // 2), n=args.n,
                        power=args.power)


def _cmd_perm_conjecture(args):
    _check_dimension(args.d, args.n)
    return _closed_form(args, "permanent_fourth_conjecture", "conjectured E|perm M|^4",
                        perm_fourth_conjecture(args.n), n=args.n, power=4)


def _cmd_wg(args):
    rho = parse_partition(args.cycle_type)
    # the Weingarten function continues below d = |rho|, down to d = 1
    _check_dimension(args.d, 0)
    return _closed_form(args, "weingarten", f"W({rho})", weingarten(rho), lam=rho)


# ---------------------------------------------------------------------------
# checks


def _cmd_dominance(args):
    n = args.n
    if n < 0:
        raise ValueError("n must be nonnegative")
    _check_dimension(args.d, n)
    lo = max(n, 1)
    d_values = [args.d] if args.d is not None else list(range(lo, lo + 11))
    covers = len(dominance_covers(n))
    violations = [
        {"d": d, "lambda": list(lam.parts), "mu": list(mu.parts)}
        for d in d_values for lam, mu in mean_dominance_check(n, d)
    ]
    ok = not violations
    payload = report("dominance", n=n, d_values=d_values, covers_checked=covers,
                     violations=violations, ok=ok)
    d_text = f"d = {d_values[0]}" if len(d_values) == 1 else (
        f"d = {d_values[0]}..{d_values[-1]}"
    )
    lines = [
        f"dominance check for n = {n}, {d_text}: "
        f"{covers} covers of the dominance order per dimension"
    ]
    if ok:
        lines.append("ok: higher in dominance order always has the smaller mean")
    else:
        for v in violations:
            lines.append(
                f"VIOLATION at d = {v['d']}: "
                f"({','.join(map(str, v['lambda']))}) above ({','.join(map(str, v['mu']))})"
            )
    _emit(args, lines, payload, rows=violations, fields=["d", "lambda", "mu"])
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Monte Carlo subcommands


def _cmd_sample(args):
    lam, samples, d_values = _sampling_setup(args)
    ests = moment_scan(lam, d_values, args.power, samples, args.seed,
                       workers=args.workers)
    rows = [{"d": e.d, "estimate": e.real, "stderr": e.stderr} for e in ests]
    if len(ests) == 1:
        e = ests[0]
        payload = report("estimate", lam=lam, d=e.d, power=e.power, samples=e.samples,
                         seed=e.seed, workers=args.workers, estimate=e.real,
                         stderr=e.stderr)
        lines = [
            f"E|Imm^({lam}) M|^{args.power} at d = {e.d}: "
            f"{e.real:.9g} +/- {e.stderr:.3g}  ({e.samples} samples, seed {e.seed})"
        ]
    else:
        payload = report("scan", lam=lam, power=args.power, samples=samples,
                         seed=args.seed, workers=args.workers, rows=rows)
        lines = [
            f"E|Imm^({lam}) M|^{args.power}, {samples} samples per point, "
            f"seed {args.seed}"
        ]
        lines += [
            f"d = {e.d:>3}  estimate {e.real:.9g}  stderr {e.stderr:.3g}"
            for e in ests
        ]
    point = {"lambda": str(lam), "n": lam.n, "power": args.power,
             "samples": samples, "seed": args.seed}
    fields = ["lambda", "n", "d", "power", "samples", "seed", "estimate", "stderr"]
    _emit(args, lines, payload, rows=[{**point, **r} for r in rows], fields=fields)
    return 0


def _cmd_verify(args):
    lam, samples, d_values = _sampling_setup(args)
    if args.power == 2:
        exact = mean(lam)
    else:
        exact = second_moment(lam, limit=args.limit_override)
    ests = moment_scan(lam, d_values, args.power, samples, args.seed,
                       workers=args.workers)
    rows, n_ok = [], 0
    for e in ests:
        q = exact.evaluate(e.d)
        target = float(q)
        diff = e.real - target
        z = diff / e.stderr if e.stderr > 0 else None
        # Absolute floor handles the deterministic edge (constant estimator,
        # stderr at roundoff level); it is far below any genuine stderr.
        point_ok = abs(diff) <= max(
            args.threshold * e.stderr, 1e-12 * max(1.0, abs(target))
        )
        n_ok += point_ok
        rows.append(
            {"d": e.d, "exact": f"{q.numerator}/{q.denominator}",
             "exact_float": target, "estimate": e.real, "stderr": e.stderr,
             "z": z, "ok": point_ok}
        )
    ok_fraction = n_ok / len(ests)
    ok = ok_fraction >= 0.95
    payload = report("verify", lam=lam, power=args.power, samples=samples,
                     seed=args.seed, workers=args.workers, threshold=args.threshold,
                     rows=rows, ok_fraction=ok_fraction, ok=ok)
    lines = [
        f"verify E|Imm^({lam}) M|^{args.power} against {exact.to_display()}; "
        f"{samples} samples per point, seed {args.seed}"
    ]
    for r in rows:
        z_text = "   n/a" if r["z"] is None else f"{r['z']:+6.2f}"
        flag = "ok" if r["ok"] else "FAIL"
        lines.append(
            f"d = {r['d']:>3}  exact {r['exact_float']:.9g}  "
            f"estimate {r['estimate']:.9g}  stderr {r['stderr']:.3g}  "
            f"z {z_text}  {flag}"
        )
    lines.append(
        f"{'ok' if ok else 'FAIL'}: {n_ok}/{len(ests)} points within "
        f"{args.threshold:g} stderr ({100 * ok_fraction:.1f}%)"
    )
    fields = ["d", "exact", "estimate", "stderr", "z", "ok"]
    _emit(args, lines, payload, rows=rows, fields=fields)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# golden tables


def _cmd_table1(args):
    if not 2 <= args.max_n <= 5:
        raise ValueError("table1 covers 2 <= n <= 5")
    table1, _ = load_golden()
    rows, lines, all_ok = [], [], True
    for row in table1:
        lam = row.lam
        if lam.n > args.max_n:
            continue
        got_mean = mean(lam)
        got_fourth = second_moment(lam)
        expected = row.fourth_best
        mean_ok = got_mean == row.mean
        fourth_ok = got_fourth == expected
        erratum = row.fourth_corrected is not None
        all_ok = all_ok and mean_ok and fourth_ok
        rows.append(
            {"lambda": list(lam.parts),
             "mean": got_mean.to_machine(),
             "mean_expected": row.mean.to_machine(),
             "mean_ok": mean_ok,
             "fourth": got_fourth.to_machine(),
             "fourth_expected": expected.to_machine(),
             "fourth_ok": fourth_ok,
             "fourth_erratum": erratum}
        )
        note = (
            " (vs corrected value; the stored published row is a documented misprint)"
            if erratum else ""
        )
        lines.append(
            f"({lam}): mean {'OK' if mean_ok else 'MISMATCH'}; "
            f"fourth {'OK' if fourth_ok else 'MISMATCH'}{note}"
        )
        if not mean_ok:
            lines.append(f"    mean computed:  {got_mean.to_machine()}")
            lines.append(f"    mean expected:  {row.mean.to_machine()}")
        if not fourth_ok:
            lines.append(f"    fourth computed: {got_fourth.to_machine()}")
            lines.append(f"    fourth expected: {expected.to_machine()}")
    lines.append("all rows match" if all_ok else "MISMATCHES FOUND")
    payload = report("table1", max_n=args.max_n, rows=rows, ok=all_ok)
    fields = ["lambda", "mean_ok", "fourth_ok", "fourth_erratum", "mean", "fourth"]
    _emit(args, lines, payload, rows=rows, fields=fields)
    return 0 if all_ok else 1


def _cmd_table2(args):
    if not 1 <= args.max_n <= 9:
        raise ValueError("table2 covers 1 <= n <= 9")
    _, table2 = load_golden()
    rows, lines, all_ok = [], [], True
    for lam, expected in table2:
        if lam.n > args.max_n:
            continue
        j = leading_coefficient(lam, limit=args.limit_override)
        ok = j == expected
        all_ok = all_ok and ok
        rows.append({"lambda": list(lam.parts), "j": j,
                      "expected": expected, "ok": ok})
        lines.append(
            f"J({lam}) = {j}" + ("" if ok else f"  MISMATCH (expected {expected})")
        )
    lines.append("all values match" if all_ok else "MISMATCHES FOUND")
    payload = report("table2", max_n=args.max_n, rows=rows, ok=all_ok)
    _emit(args, lines, payload, rows=rows, fields=["lambda", "j", "expected", "ok"])
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# parser


def _add_output_flags(p, rows):
    """--format and --out; csv only for a subcommand that writes rows."""
    p.add_argument(
        "--format", choices=["text", "json", "csv"] if rows else ["text", "json"],
        default="text", help="output format (default text)",
    )
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write output to FILE instead of stdout")


def _add_d_flag(p, help="evaluate at this dimension (default: symbolic)", grid=False):
    """--d as one dimension, or with grid as a required dimension or range."""
    if grid:
        p.add_argument("--d", required=True, metavar="D|LO:HI",
                       help="dimension or inclusive range, e.g. 7 or 3:20")
    else:
        p.add_argument("--d", type=int, default=None, help=help)


def _add_workers_flag(p):
    p.add_argument(
        "--workers", type=int, default=os.cpu_count() or 1, metavar="W",
        help="worker processes (default: available parallelism)",
    )


def _add_limit_flag(p):
    p.add_argument(
        "--limit-override", type=int, default=None, metavar="N",
        help=f"raise the built-in size cap (fourth moments stop at n = {SECOND_MOMENT_LIMIT}, "
             f"leading coefficients at n = {LEADING_LIMIT}, unless overridden)",
    )


def _add_sampling_flags(p):
    p.add_argument("--power", type=int, choices=[2, 4], default=2,
                   help="absolute-moment power (default 2)")
    p.add_argument(
        "--samples", type=int, default=None, metavar="S",
        help="samples per grid point (default: 10^4 for power 2, "
             "10^5 for power 4)",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="base seed for the random stream (default 0)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="immom",
        description="Exact and Monte Carlo moments of immanants of "
                    "submatrices of Haar-random unitaries.",
    )
    parser.add_argument("--version", action="version",
                        version=f"immom {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mean", help="exact mean of |Imm^lambda M|^2")
    p.add_argument("partition", help="partition, e.g. 2,1 or 2,1^3")
    _add_d_flag(p)
    p.set_defaults(func=_cmd_mean)

    p = sub.add_parser("second-moment",
                       help="exact mean of |Imm^lambda M|^4")
    p.add_argument("partition")
    _add_d_flag(p)
    _add_limit_flag(p)
    p.set_defaults(func=_cmd_second_moment)

    p = sub.add_parser(
        "leading",
        help="integer leading coefficient of the fourth moment's large-d decay",
    )
    p.add_argument("partition")
    _add_limit_flag(p)
    p.set_defaults(func=_cmd_leading)

    p = sub.add_parser("det-moment",
                       help="exact moments of |det M| for an n x n block")
    p.add_argument("n", type=int)
    p.add_argument("--power", type=int, default=4,
                   help="even absolute-moment power 2t (default 4)")
    _add_d_flag(p)
    p.set_defaults(func=_cmd_det_moment)

    p = sub.add_parser(
        "perm-conjecture",
        help="conjectured closed form for the fourth moment of |perm M|",
    )
    p.add_argument("n", type=int)
    _add_d_flag(p)
    p.set_defaults(func=_cmd_perm_conjecture)

    p = sub.add_parser("wg",
                       help="Weingarten function of a cycle type, rational in d")
    p.add_argument("cycle_type", help="cycle type as a partition, e.g. 2,1")
    _add_d_flag(p)
    p.set_defaults(func=_cmd_wg)

    p = sub.add_parser(
        "dominance",
        help="check that dominance-higher partitions have smaller means",
    )
    p.add_argument("n", type=int)
    _add_d_flag(p, help="single dimension to check (default: n..n+10, or 1..11 at n = 0)")
    p.set_defaults(func=_cmd_dominance)

    p = sub.add_parser("sample",
                       help="Monte Carlo moment estimate over a d grid")
    p.add_argument("partition")
    _add_d_flag(p, grid=True)
    _add_sampling_flags(p)
    _add_workers_flag(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser(
        "verify",
        help="exact value vs Monte Carlo estimate, side by side with z-scores",
    )
    p.add_argument("partition")
    _add_d_flag(p, grid=True)
    _add_sampling_flags(p)
    p.add_argument("--threshold", type=float, default=5.0,
                   help="per-point |z| acceptance threshold (default 5)")
    _add_workers_flag(p)
    _add_limit_flag(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "table1",
        help="recompute the reference mean/fourth-moment table and compare",
    )
    p.add_argument("--max-n", type=int, default=5,
                   help="largest n to include (2..5, default 5; "
                        "the whole table takes about 0.6 s on 2 vCPUs)")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser(
        "table2",
        help="recompute the reference leading-coefficient table and compare",
    )
    p.add_argument("--max-n", type=int, default=7,
                   help="largest n to include (1..9, default 7)")
    _add_limit_flag(p)
    p.set_defaults(func=_cmd_table2)

    row_commands = ("sample", "verify", "table1", "table2", "dominance")
    for name, p in sub.choices.items():
        _add_output_flags(p, rows=name in row_commands)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "workers", 1) < 1:
            raise ValueError("--workers must be at least 1")
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ChildProcessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
