"""datachan benchmark: run one workload and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload stream-full --seed 1 --seconds 30 --trace 0

The benchmark writes the workload's inputs for the seed (see
``workloads.py``), then starts fresh interpreters (``child.py``) that each
run the unmodified ``datachan run`` pipeline once, until ``--seconds`` are
used.  Every invocation is checked: each scenario must pass its required
checks and write every requested artifact, and all invocations must write
byte-identical artifacts.

Times are reported at a reference host speed: the benchmark runs a fixed
kernel (``calibrate.py``) before and after every invocation and scales the
invocation's wall time by the reference kernel time over the measured one,
because the shared hosts it runs on drift by up to 2x over minutes.

With ``--trace 0`` it reports the end-to-end metrics: the mean time of an
invocation and its throughput, and medians of set-up time and peak memory.  With ``--trace 1`` it alternates traced and untraced
invocations and reports per-layer host time and work counts from the traced
ones (see ``tracing.py``), plus the tracing overhead.  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` scenarios, and ``metrics``.  Samples, the spans of traced
invocations, host facts and the sha256 of every artifact go to
``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean, median, quantiles

import calibrate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = Path(".perfbench_work")  # relative to the checkout root

SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark itself cannot produce a valid result."""


def _child(request: dict, tag: str, work: Path) -> dict:
    """Run child.py once; return its result with ``setup_s`` filled in."""
    req_path, res_path = work / f"{tag}.request.json", work / f"{tag}.result.json"
    req_path.write_text(json.dumps(request))
    res_path.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # Bytecode is cached (as an installed package has it), whatever the caller's setting.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    log = work / f"{tag}.log"
    with open(log, "w") as fh:
        spawned = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "child.py"), str(req_path), str(res_path)],
                stdout=fh, stderr=subprocess.STDOUT, env=env, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{tag}: no result within {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        tail = log.read_text()[-2000:]
        raise BenchError(f"{tag}: child exited with {proc.returncode}\n{tail}")
    result = json.loads(res_path.read_text())
    result["setup_s"] = result["ready"] - spawned
    return result


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_invocation(workload, result: dict, out_dir: Path) -> list[str]:
    """One line per failed scenario: raised, failed or missed a check, or
    missed an artifact.  A non-zero exit no scenario accounts for fails them all."""
    produced = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else set()
    failures = []
    for sc in workload.scenarios:
        got = result["scenarios"].get(sc.name)
        problems = []
        if got is None:
            problems.append("did not run")
        elif "error" in got:
            problems.append(got["error"])
        else:
            checks = got["checks"]
            problems += [f"missing check {c}" for c in sorted(sc.required_checks() - set(checks))]
            problems += [f"check {c} failed" for c, ok in sorted(checks.items()) if not ok]
            if not got["passed"] and not problems:
                problems.append("verdict FAIL")
        problems += [f"missing artifact {a}" for a in sorted(sc.expected_artifacts() - produced)]
        if problems:
            failures.append(f"{sc.name}: " + "; ".join(problems))
    if result["exit_code"] != 0 and not failures:
        reason = result["error"] or f"exit code {result['exit_code']}"
        failures = [f"{sc.name}: {reason}" for sc in workload.scenarios]
    return failures


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = quantiles(values, n=4)
    return q1, q3


def bench(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    import manifest
    import tracing
    import workloads

    tag = f"{name}-seed{seed}-trace{int(trace)}"
    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.generate(name, seed, work / "inputs")
    out_dir = work / "out"
    request = {"config": str(workload.config), "out": str(out_dir),
               "scenarios": [str(sc.path) for sc in workload.scenarios]}

    # Byte-compiles the package and warms the file cache, which an installed
    # datachan does not pay on every call.
    host = _child({**request, "probe": True}, "warmup", work)
    begin = time.perf_counter()
    # Host speed factors: the reference kernel runs before and after the
    # set-up probes and after every invocation (see calibrate.py).
    kernel_s = [calibrate.kernel_s()]

    def speed() -> float:
        kernel_s.append(calibrate.kernel_s())
        return calibrate.REFERENCE_S / ((kernel_s[-2] + kernel_s[-1]) / 2)

    probes = [_child({**request, "probe": True}, "probe", work)["setup_s"]
              for _ in range(SETUP_PROBES)]
    factor = speed()
    setup = [s * factor for s in probes]

    plain, traced, hashes, failures, durations = [], [], [], [], []
    attempted = 0
    while True:
        tracing_now = trace and len(traced) <= len(plain)
        started = time.perf_counter()
        shutil.rmtree(out_dir, ignore_errors=True)
        res = _child({**request, "trace": tracing_now}, "run", work)
        res["speed"] = speed()
        res["wall_run_s"] = res["run_s"]
        res["run_s"] *= res["speed"]
        res["setup_s"] *= res["speed"]
        attempted += len(workload.scenarios)
        failed_here = check_invocation(workload, res, out_dir)
        failures += failed_here
        hashes.append({p.name: _sha256(p) for p in sorted(out_dir.iterdir())}
                      if out_dir.is_dir() else {})
        shutil.rmtree(out_dir, ignore_errors=True)
        setup.append(res["setup_s"])
        if tracing_now:
            fired = {s["name"] for s in res["spans"]}
            missing = workloads.EXPECTED_SPANS[name] - fired
            if missing and not failed_here:
                raise BenchError(f"expected spans never fired: {sorted(missing)}")
            traced.append(res)
        else:
            plain.append(res)
        durations.append(time.perf_counter() - started)
        enough = (plain and traced) if trace else len(plain) >= 3
        if enough and time.perf_counter() - begin + median(durations) > seconds:
            break

    run_s = [r["run_s"] for r in plain]
    if trace:
        metrics = tracing.median_metrics(
            [tracing.layer_metrics(r["spans"], r["speed"]) for r in traced])
        metrics["trace.overhead_s"] = fmean(r["run_s"] for r in traced) - fmean(run_s)
    else:
        metrics = {
            # Means: invocation times vary independently of each other, so
            # the mean uses every sample fully (see README.md).
            "run_s": fmean(run_s),
            "words_per_s": workload.words / fmean(run_s),
            "setup_s": median(setup),
            "peak_rss_mb": median(r["max_rss_kib"] * 1024 / 1e6 for r in plain),
            "pass_ratio": 1 - len(failures) / attempted,
        }
    wanted = [m["name"] for m in (manifest.PER_LAYER if trace else manifest.END_TO_END)]
    if sorted(metrics) != sorted(wanted):
        raise BenchError(f"metrics {sorted(metrics)} differ from the manifest's {sorted(wanted)}")
    metrics = {m: metrics[m] for m in wanted}
    identical = all(h == hashes[0] for h in hashes) and bool(hashes[0])
    summary = {
        "correct": not failures and identical,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": host["numpy"], "machine": platform.machine()},
        "invocations": {"untraced": len(plain), "traced": len(traced)},
        "words": workload.words,
        "samples": {"run_s": run_s, "setup_s": setup,
                    "wall_run_s": [r["wall_run_s"] for r in plain],
                    "kernel_s": kernel_s,
                    "traced_run_s": [r["run_s"] for r in traced],
                    "max_rss_kib": [r["max_rss_kib"] for r in plain]},
        "failures": failures,
        "traced_spans": [r["spans"] for r in traced],
        "artifacts_identical": identical,
        "artifacts_sha256": hashes if not identical else hashes[0],
    }
    shutil.rmtree(work, ignore_errors=True)
    return summary, details


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(BENCH_DIR))
    from manifest import UNITS, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "datachan" / "__init__.py").is_file():
        print("benchmark error: run from the root of a datachan checkout "
              "(src/datachan not found)", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    try:
        summary, details = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**summary, **details}, indent=1) + "\n")

    inv = details["invocations"]
    print(f"workload {args.workload}, seed {args.seed}: {inv['untraced']} untraced and "
          f"{inv['traced']} traced invocations, {details['words']} words each")
    samples = details["samples"]["run_s"]
    q1, q3 = _quartiles(samples)
    print(f"  run_s quartiles {q1:.4f} .. {q3:.4f} over {len(samples)} invocations")
    q1, q3 = _quartiles(details["samples"]["wall_run_s"])
    print(f"  wall run_s quartiles {q1:.4f} .. {q3:.4f}; reference kernel "
          f"{median(details['samples']['kernel_s']):.4f} s, {calibrate.REFERENCE_S} s at "
          "the reference speed")
    for metric, value in summary["metrics"].items():
        print(f"  {metric:32s} {value:14.6g} {UNITS[metric]}")
    print(f"  fail_ratio {summary['failed'] / summary['attempted']:.4g} "
          f"({summary['failed']} of {summary['attempted']} scenarios)")
    for line in details["failures"][:20]:
        print(f"  FAILED {line}")
    if details["artifacts_identical"]:
        for artifact, digest in details["artifacts_sha256"].items():
            print(f"  sha256 {digest} {artifact}")
    else:
        print("  artifacts differ between invocations")
    print(f"  results: {path}")
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m: {"value": v, "unit": UNITS[m]} for m, v in summary["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
