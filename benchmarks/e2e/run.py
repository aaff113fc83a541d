"""End-to-end ledger: four workloads, six end-to-end metrics, per-layer trace.

    python3 benchmarks/e2e/run.py                       # everything, a table
    python3 benchmarks/e2e/run.py --workload serve_hot --seed 7 \\
        --seconds 20 --trace 0                          # one contract run
    python3 benchmarks/e2e/run.py --trace 0 --runs 5 --out A.json
    python3 benchmarks/e2e/run.py --compare A.json B.json

Each workload runs in its own child process (fresh registry, caches and
RSS) with ``repro.obs`` tracing off, after an untimed warm-up.  ``--trace 0``
measures the end-to-end metrics, ``--trace 1`` the per-layer ones with the
benchmark's own span recorder; without ``--trace`` both passes run.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is nonzero when any
operation failed.  See README.md in this directory for the catalogue.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
PIPELINES = ("cesm_table3", "fmo_ladder")
DEFAULT_SEED = 20120427

#: One compute thread per process.  With the default BLAS pool, identical
#: sweeps on the 2-vCPU authoring host were bimodal (1.27 s / 1.75 s, CPU time
#: 20 % above wall: the pool spin-waits), and the serving tier already runs
#: one worker process per core.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
}

#: Fresh processes that each do the whole set-up; ``setup_s`` is their median.
SETUP_REPEATS = 3


def _import_program() -> None:
    """Put the program and this directory on the path (child processes)."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"run.py: no program to measure at {ROOT / 'src' / 'repro'}")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


# -- the child: one workload, one pass --------------------------------------


def child(args) -> None:
    _import_program()
    import hostspeed

    setup = hostspeed.SetupClock(args.spawned_at)
    import catalogue
    import pipelines
    import serving

    reference = json.loads((HERE / "reference.json").read_text())
    module = pipelines if args.child in PIPELINES else serving
    result = module.run(
        args.child, args.seed, args.seconds, bool(args.trace), reference,
        setup, setup_only=args.setup_only,
    )
    if not args.setup_only:
        if args.seed == reference["seed"]:
            digest = catalogue.input_digest(args.child, args.seed)
            if digest != reference["digests"].get(args.child):
                result["failed"] += 1
                result["failures"].append(
                    f"input digest {digest} differs from reference.json"
                )
        usage = [
            resource.getrusage(who).ru_maxrss
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        ]
        result["peak_rss_mb"] = sum(usage) / 1024.0  # ru_maxrss is in KiB
        result["tier"] = {
            "cores": serving.cores(),
            "worker_mode": serving.tier_config().worker_mode,
            "shards": serving.tier_config().shards,
        }
        recorder = result.pop("recorder", None)
        if recorder is not None:
            out = HERE / "out"
            out.mkdir(exist_ok=True)
            recorder.dump(out / f"trace_{args.child}.jsonl")
    print(json.dumps(result))


def spawn(workload, seed, seconds, trace, setup_only=False) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--child", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        # Set-up is timed from here: interpreter start and imports count.
        "--spawned-at", repr(time.time()),
    ]
    if setup_only:
        command.append("--setup-only")
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=170,
        env={**os.environ, **CHILD_ENV},
    )
    if done.returncode != 0:
        sys.exit(f"run.py: {workload} child exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- the parent: passes, metrics, report ------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One pass of one workload, as ``{name: value}`` metrics plus counts."""
    from spans import summary

    result = spawn(workload, seed, seconds, trace)
    if trace:
        # Every workload reports every layer; a layer it never enters is 0.
        layers = dict.fromkeys((m["name"] for m in SPEC["per_layer"]), 0.0)
        unknown = set(result["per_layer"]) - set(layers)
        if unknown:
            sys.exit(f"run.py: layers missing from BENCHMARK.json: {unknown}")
        layers.update(result["per_layer"])
        metrics = layers
    else:
        setups = [result["setup_s"]] + [
            spawn(workload, seed, seconds, trace, setup_only=True)["setup_s"]
            for _ in range(SETUP_REPEATS - 1)
        ]
        metrics = dict(result["end_to_end"])
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        result["stats"]["setup_s"] = summary(setups)
    return {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": result["failures"],
        "metrics": metrics,
        "stats": result.get("stats", {}),
        "objectives": result.get("objectives", {}),
        "tier": result["tier"],
    }


def units() -> dict[str, str]:
    return {
        m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]
    }


def contract_line(passes: list[dict]) -> str:
    unit = units()
    metrics = {
        name: {"value": value, "unit": unit[name]}
        for p in passes for name, value in p["metrics"].items()
    }
    failed = sum(p["failed"] for p in passes)
    return json.dumps({
        "correct": failed == 0,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": failed,
        "metrics": metrics,
    })


def provenance(seed: int, seconds: float, tier: dict) -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        **tier,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "child_env": CHILD_ENV,
        "platform": platform.platform(),
        "commit": commit,
        "seed": seed,
        "seconds": seconds,
    }


def report(workload: str, passes: list[dict]) -> None:
    unit = units()
    print(f"\n== {workload} ==", file=sys.stderr)
    for p in passes:
        for name, value in p["metrics"].items():
            stats = p["stats"].get(name)
            spread = (
                f"  n={stats['n']} median={stats['median']:.6g} "
                f"q1={stats['q1']:.6g} q3={stats['q3']:.6g}" if stats else ""
            )
            print(f"{name:34s} {value:14.6g} {unit[name]:8s}{spread}",
                  file=sys.stderr)
        print(f"{'attempted':34s} {p['attempted']:14d}", file=sys.stderr)
        print(f"{'failed':34s} {p['failed']:14d}", file=sys.stderr)
        for why in p["failures"]:
            print(f"  FAILED {why}", file=sys.stderr)


def run(args) -> int:
    from spans import summary

    workloads = args.workload or WORKLOADS
    traces = [0, 1] if args.trace is None else [args.trace]
    ledger = {"workloads": {}}
    unit = units()
    failed = 0
    for workload in workloads:
        runs = []  # one merged dict of passes per seed
        for seed in range(args.seed, args.seed + args.runs):
            passes = [measure(workload, seed, args.seconds, t) for t in traces]
            report(workload, passes)
            print(contract_line(passes))
            runs.append(passes)
        every = [p for passes in runs for p in passes]
        failed += sum(p["failed"] for p in every)
        metrics = {}
        for name in [n for p in runs[0] for n in p["metrics"]]:
            values = [p["metrics"][name] for p in every if name in p["metrics"]]
            if len(values) > 1:  # across the seeds: what the driver compares
                spread = {**summary(values), "runs": values}
            else:  # within the one run
                spread = next(
                    p["stats"].get(name, {}) for p in every if name in p["metrics"]
                )
            metrics[name] = {
                "value": statistics.median(values), "unit": unit[name], **spread
            }
        ledger["workloads"][workload] = {
            "attempted": sum(p["attempted"] for p in every),
            "failed": sum(p["failed"] for p in every),
            "objectives": every[0]["objectives"],
            "metrics": metrics,
        }
        ledger["provenance"] = {
            **provenance(args.seed, args.seconds, every[0]["tier"]),
            "runs": args.runs,
        }
    if args.out:
        pathlib.Path(args.out).write_text(
            json.dumps(ledger, indent=2, sort_keys=True) + "\n"
        )
    return 1 if failed else 0


# -- compare ----------------------------------------------------------------


def compare(path_a: str, path_b: str) -> int:
    """B against A: every workload x end-to-end metric within its bound."""
    a = json.loads(pathlib.Path(path_a).read_text())["workloads"]
    b = json.loads(pathlib.Path(path_b).read_text())["workloads"]
    breaches = 0
    print(f"{'workload':14s} {'metric':18s} {'A':>12s} {'B':>12s} "
          f"{'worse by':>9s} {'bound':>6s}")
    for workload in sorted(set(a) & set(b)):
        for m in SPEC["end_to_end"]:
            name = m["name"]
            if name not in a[workload]["metrics"] or name not in b[workload]["metrics"]:
                continue
            va = a[workload]["metrics"][name]["value"]
            vb = b[workload]["metrics"][name]["value"]
            worse = (vb - va) / va if m["better"] == "lower" else (va - vb) / va
            breach = worse > m["bound"]
            breaches += breach
            print(f"{workload:14s} {name:18s} {va:12.6g} {vb:12.6g} "
                  f"{100 * worse:+8.2f}% {m['bound']:6.3f}"
                  + ("  BREACH" if breach else ""))
        if b[workload]["failed"]:
            breaches += 1
            print(f"{workload:14s} failed operations: {b[workload]['failed']}  BREACH")
    return 1 if breaches else 0


# -- reference --------------------------------------------------------------


def update_reference() -> None:
    """Rewrite reference.json from a fresh run of the default seed."""
    import catalogue

    objectives = {
        w: spawn(w, DEFAULT_SEED, 1, 0)["objectives"] for w in PIPELINES
    }
    (HERE / "reference.json").write_text(json.dumps({
        "seed": DEFAULT_SEED,
        "objectives": objectives,
        "digests": {
            w: catalogue.input_digest(w, DEFAULT_SEED) for w in WORKLOADS
        },
    }, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, choices=(0, 1),
                        help="0: end-to-end pass, 1: per-layer pass; "
                        "omitted: both")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, seeds SEED, SEED+1, ...; the "
                        "ledger stores each metric's median over them")
    parser.add_argument("--out", help="write the full ledger to this file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--update-reference", action="store_true")
    parser.add_argument("--child", choices=WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.child:
        child(args)
        return 0
    _import_program()  # fail before measuring when there is no program
    if args.update_reference:
        update_reference()
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
