"""Run the cooperative-edge benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload metro --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py                # every workload, each in a
                                            # fresh process

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: it reports the per-layer
metrics, the tracing overhead and the time no layer claims, and writes
its spans to ``.perfbench/spans-<workload>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and
units come from ``BENCHMARK.json``.  The exit code is non-zero when a
correctness or determinism check fails.  Every run's full result,
provenance included, is also written under ``.perfbench/results/``, and
``.perfbench/determinism.json`` remembers each seed's simulated
statistics so that later runs of the same source must reproduce them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
STATE = pathlib.Path(".perfbench")
WORKLOAD_NAMES = ("metro", "city", "catalog", "real")


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def source_digest() -> str:
    """SHA-256 over the program's sources: what the results depend on."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, params: dict, source: str) -> dict:
    import numpy

    # The ceiling keeps git from reporting an enclosing repository's
    # commit when the checkout itself is not a git repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
            check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"commit": commit, "source_sha256": source,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "tiny": args.tiny, "params": params}


def check_stored(fingerprints: dict, key: str) -> list[str]:
    """Compare with (and extend) the fingerprints earlier runs stored."""
    path = STATE / "determinism.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    violations = []
    for seed, fingerprint in fingerprints.items():
        entry = f"{key}/{seed}"
        fingerprint = json.loads(json.dumps(fingerprint))
        if entry not in stored:
            stored[entry] = fingerprint
        elif stored[entry] != fingerprint:
            diff = sorted(k for k in fingerprint
                          if fingerprint[k] != stored[entry].get(k))
            violations.append(f"seed {seed}: simulated statistics differ "
                              f"from an earlier run ({', '.join(diff)})")
    STATE.mkdir(exist_ok=True)
    path.write_text(json.dumps(stored, indent=1, sort_keys=True))
    return violations


def run_one(args) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    benchmark = load_benchmark()
    kind = "per_layer" if args.trace else "end_to_end"
    declared = benchmark[kind]
    result = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), tiny=args.tiny)
    source = source_digest()
    violations = list(result["violations"])
    violations += check_stored(
        result["fingerprints"],
        f"{source}/{args.workload}/{'tiny' if args.tiny else 'full'}")
    missing = [m["name"] for m in declared
               if m["name"] not in result["metrics"]]
    if missing:
        violations.append(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": result["metrics"][m["name"]],
                           "unit": m["unit"]}
               for m in declared if m["name"] in result["metrics"]}

    STATE.mkdir(exist_ok=True)
    detail = {"provenance": provenance(args, result["params"], source),
              "metrics": metrics, "samples": result["samples"],
              "violations": violations,
              "fingerprints": result["fingerprints"]}
    if args.trace:
        detail["breakdown"] = result["breakdown"]
        spans = STATE / f"spans-{args.workload}.npz"
        result["tracer"].save(spans)
        detail["spans_file"] = str(spans)
    results_dir = STATE / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(detail, indent=1, default=str))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for m in declared:
        if m["name"] in metrics:
            print(f"  {m['name']:<36} {metrics[m['name']]['value']:>14.6g} "
                  f"{m['unit']:<10} ({m['better']} is better)")
    if args.trace:
        print(f"  traced wall {result['breakdown']['traced_wall_s']:.3f} s; "
              f"self time by span:")
        for name, row in result["breakdown"]["self_time"].items():
            print(f"    {name:<30} {row['self_s']:>10.4f} s "
                  f"{row['share']:>7.1%}")
    for violation in violations:
        print(f"  CHECK FAILED: {violation}")
    print("provenance " + json.dumps(detail["provenance"], default=str))
    print("samples " + json.dumps(result["samples"], default=str))
    print(json.dumps({"correct": not violations,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 1 if violations else 0


def run_all(args) -> int:
    """Every workload, each in its own fresh interpreter."""
    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(pathlib.Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace",
                   str(args.trace)] + (["--tiny"] if args.tiny else [])
        status |= subprocess.run(command, check=False).returncode
    return 1 if status else 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken workloads, for the benchmark's tests")
    return parser.parse_args(argv)


def stop_children() -> None:
    """Stop and reap every process this run started.

    ``real`` spawns its services with multiprocessing "spawn", which
    also starts multiprocessing's resource tracker.  The tracker would
    otherwise outlive this process by a moment; stopping it here closes
    its pipe and waits for it to exit.
    """
    if "multiprocessing" not in sys.modules:
        return
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    try:
        return run_one(args)
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
