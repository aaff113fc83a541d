"""Benchmark regression gate: fresh numbers vs. the committed baseline.

``make bench-check`` (and the ``dynlb-bench`` / ``serving`` / ``obs-bench``
targets) run a benchmark with its ``HSLB_BENCH_*_OUT``
env var pointed at a ``*.fresh.json`` scratch file, then invoke this script
to diff that fresh file against the committed baseline.  The gate fails
(exit 1) when any *gated* record regresses past its threshold; everything
else is reported informationally, because end-to-end wall times are too
noisy on shared CI runners to gate hard.

Each gate rule carries a **direction** — ``lower`` for records where small
is good (timings, latencies, lost requests) and ``higher`` for records
where large is good (throughput, hit rates, speedups) — and an optional
per-record threshold overriding the CLI default, so deterministic records
(keyed-RNG simulated seconds, request accounting) gate tight while wall
times gate loose.

``--update`` promotes the fresh file to the committed baseline (after
printing the comparison) and deletes the scratch file, so accepted perf
changes don't leave stale ``*.fresh.json`` files rotting in
``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import pathlib
import sys
from dataclasses import dataclass

_HERE = pathlib.Path(__file__).parent
_BASELINE = _HERE / "out" / "BENCH_solver_micro.json"


@dataclass(frozen=True)
class GateRule:
    """One gated record family: pattern, direction, optional threshold."""

    pattern: str
    direction: str = "lower"  # "lower" = small is good, "higher" = large is
    threshold: float | None = None  # None -> the CLI --threshold default


#: Records whose regression fails the gate (first matching rule wins).
#:
#: * solver micro-benchmarks — the hot path this repo optimizes
#:   deliberately; a >2x wall-time regression is a code problem, not noise
#:   (``test_layout1_full_solve`` included: losing the relaxation
#:   projection costs it ~9x; ``test_root_relaxation*`` included: SLSQP
#:   back behind ``minimize``'s per-row closures and tree walks costs the
#:   root relaxation ~2x; ``test_oa_master_iterations*`` included:
#:   losing the seeded master or the nonlinear-only cut key costs ~2.5x;
#:   ``test_fitting_throughput`` included: going back to scipy's
#:   ``least_squares`` wrappers costs the five-start fit ~2.3x;
#:   ``test_suite_fit_throughput`` included: fitting the 24-fragment FMO
#:   suite one start after another instead of in lockstep costs ~2.5x;
#:   ``test_many_fragment_minlp_stress`` included: a whole FMO OA tree,
#:   so a fresh HiGHS instance per node LP shows here too;
#:   ``test_wide_sos_formulate`` included: a quadratic ``sum_exprs`` and
#:   unmemoized ``variables()`` / ``is_linear()`` cost the 241-binary
#:   ocean rows ~2.2x; ``test_expression_differentiation`` included:
#:   symbolic ``diff`` builds its sums through the same ``sum_exprs``);
#: * ``dynlb_total_*`` — *simulated* seconds under the keyed-RNG workload,
#:   deterministic, so a regression is an algorithmic change;
#: * ``service_*`` — the allocation-service Zipf-mix records, all
#:   deterministic: the hit rate, and ``service_replay_mismatches`` pinning
#:   bit-identical replay at exactly 0;
#: * ``asyncserve_*`` — the async tier under a keyed burst; its accounting
#:   records (lost/answered/dedup rate) are deterministic and gate tight
#:   (the e2e ledger owns wall-clock);
#: * ``obs_*`` — tracing-overhead contracts; their committed baselines ARE
#:   the contract values (disabled-guard fraction 0.05, enabled ratio 1.5),
#:   so with threshold 1.0 the gate fails exactly when a fresh run exceeds
#:   the contract, not when it drifts relative to a lucky measurement.
GATED = (
    GateRule("test_lp_highs_backend"),
    GateRule("test_incremental_lp_node_resolve"),
    GateRule("test_bnb_node_throughput*"),
    GateRule("test_layout1_full_solve"),
    GateRule("test_root_relaxation*"),
    GateRule("test_oa_master_iterations*"),
    GateRule("test_fitting_throughput"),
    GateRule("test_suite_fit_throughput"),
    GateRule("test_many_fragment_minlp_stress"),
    GateRule("test_wide_sos_formulate"),
    GateRule("test_expression_differentiation"),
    GateRule("dynlb_total_*"),
    GateRule("service_hit_rate", "higher", 1.2),
    GateRule("service_replay_mismatches", "lower", 1.0),
    GateRule("asyncserve_lost_requests", "lower", 1.0),
    GateRule("asyncserve_answered", "higher", 1.01),
    GateRule("asyncserve_dedup_rate", "higher", 1.01),
    GateRule("obs_disabled_overhead_fraction", "lower", 1.0),
    GateRule("obs_enabled_overhead_ratio", "lower", 1.0),
)


def _load(path: pathlib.Path) -> dict:
    """Read and validate one benchmark JSON; exit with a clear message.

    Every failure mode a stale checkout can produce — missing file,
    corrupt JSON, a schema that is not ``{name: {mean: ...}}`` — exits
    with a one-line diagnosis instead of surfacing as a KeyError later.
    """
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        sys.exit(
            f"bench-check: missing benchmark file {path}\n"
            "  (generate a baseline with `make solver-bench` / `make dynlb-bench`,"
            " or point --fresh/--baseline at an existing file)"
        )
    except json.JSONDecodeError as exc:
        sys.exit(f"bench-check: {path} is not valid JSON ({exc})")
    if not isinstance(data, dict):
        sys.exit(
            f"bench-check: {path} must map benchmark names to stat records, "
            f"got {type(data).__name__}"
        )
    for name, record in data.items():
        if not isinstance(record, dict):
            sys.exit(
                f"bench-check: {path}: record for {name!r} is "
                f"{type(record).__name__}, expected an object with a 'mean' field "
                "— regenerate the file"
            )
    return data


def _rule_for(name: str) -> GateRule | None:
    for rule in GATED:
        if fnmatch.fnmatch(name, rule.pattern):
            return rule
    return None


def _regression(mean: float, base: float, direction: str) -> float:
    """How many times worse ``mean`` is than ``base`` (1.0 = unchanged).

    For ``lower`` direction that is ``mean/base``; for ``higher`` it is
    ``base/mean``.  A zero on the good side of either ratio means "cannot
    regress from here" and reports 1.0; a zero on the bad side (e.g. lost
    requests appearing over a 0 baseline, throughput collapsing to 0)
    reports infinity.
    """
    if direction == "higher":
        if base <= 0:
            return 1.0
        return float("inf") if mean <= 0 else base / mean
    if base <= 0:
        return 1.0 if mean <= 0 else float("inf")
    return mean / base


def check(fresh: dict, baseline: dict, threshold: float) -> list[str]:
    """Return the list of gate failures (empty means the gate passes)."""
    failures: list[str] = []
    for name in sorted(baseline):
        base_mean = baseline[name].get("mean")
        record = fresh.get(name)
        rule = _rule_for(name)
        if rule is None:
            continue
        if record is None:
            failures.append(
                f"{name}: present in baseline but missing from fresh run "
                "(renamed or removed? update the committed baseline alongside "
                "the benchmark)"
            )
            continue
        mean = record.get("mean")
        if base_mean is None or mean is None:
            continue
        limit = rule.threshold if rule.threshold is not None else threshold
        regression = _regression(mean, base_mean, rule.direction)
        verdict = "FAIL" if regression > limit else "ok"
        arrow = "v" if rule.direction == "lower" else "^"
        print(
            f"[{verdict}] {name} ({arrow}): {base_mean:.6g} -> {mean:.6g} "
            f"({regression:.2f}x worse, limit {limit:.2f}x)"
        )
        if regression > limit:
            failures.append(
                f"{name}: mean {mean:.6g} is {regression:.2f}x worse than the "
                f"baseline {base_mean:.6g} "
                f"({rule.direction} is better, threshold {limit:.2f}x)"
            )
    for name in sorted(set(fresh) - set(baseline)):
        print(f"[new ] {name}: {fresh[name].get('mean', 0.0):.6g} (no baseline)")
    return failures


def update_baseline(fresh: pathlib.Path, baseline: pathlib.Path) -> None:
    """Promote the fresh file to the baseline and drop the scratch file."""
    baseline.parent.mkdir(parents=True, exist_ok=True)
    baseline.write_text(fresh.read_text())
    if fresh.resolve() != baseline.resolve():
        fresh.unlink()
    print(f"bench-check: baseline {baseline} updated; removed {fresh}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fresh",
        type=pathlib.Path,
        required=True,
        help="benchmark JSON produced by the fresh run (via HSLB_BENCH_*_OUT)",
    )
    parser.add_argument(
        "--baseline",
        type=pathlib.Path,
        default=_BASELINE,
        help=f"committed baseline to diff against (default: {_BASELINE})",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=2.0,
        help="default allowed regression factor for gated records without "
        "a per-record threshold",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="promote the fresh file to the committed baseline (after "
        "printing the comparison) and delete the scratch file",
    )
    args = parser.parse_args(argv)
    if args.update and not args.baseline.exists():
        baseline = {}  # first-time promotion: nothing to diff against yet
    else:
        baseline = _load(args.baseline)
    failures = check(_load(args.fresh), baseline, args.threshold)
    if args.update:
        update_baseline(args.fresh, args.baseline)
        return 0
    if failures:
        print("\nbench-check FAILED:", file=sys.stderr)
        for line in failures:
            print(f"  - {line}", file=sys.stderr)
        return 1
    print("\nbench-check passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
