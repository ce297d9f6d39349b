"""One workload invocation in a fresh interpreter.

Usage: python3 perfbench/child.py REQUEST.json RESULT.json

The request names the config file, the scenario files, the output
directory and whether to trace.  The child first does what every
``datachan`` call does before its first scenario (import the package,
load and validate the config, build the channel netlist) and stamps the
monotonic clock, which the parent compares with its own stamp taken just
before it started the process.  Unless the request is a set-up probe, it
then calls ``datachan.cli.main(["run", ...])`` in-process and reports the
wall time of that call, each scenario's checks, the exit code, the peak
resident memory and, when tracing, the spans.
"""

import json
import resource
import sys
import time


def main(request_path: str, result_path: str) -> None:
    with open(request_path) as fh:
        req = json.load(fh)

    import datachan.cli
    from datachan.config import load_config
    from datachan.netlist import build_channel

    build_channel(load_config(req["config"]))  # load_config validates
    ready = time.perf_counter()
    result = {"ready": ready, "numpy": sys.modules["numpy"].__version__}
    if req.get("probe"):
        _dump(result, result_path)
        return

    tracer = None
    if req["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    scenarios: dict[str, dict] = {}
    run_scenario = datachan.cli.run_scenario

    def collect(config, sc, out_dir):
        try:
            res = run_scenario(config, sc, out_dir)
        except Exception as exc:
            scenarios[sc.name] = {"error": f"{type(exc).__name__}: {exc}"}
            raise
        scenarios[sc.name] = {"passed": res.passed, "checks": res.checks}
        return res

    datachan.cli.run_scenario = collect
    argv = ["run", "--config", req["config"], "--out", req["out"]]
    for path in req["scenarios"]:
        argv += ["--scenario", path]

    error = None
    t0 = time.perf_counter()
    try:
        code = datachan.cli.main(argv)
    except Exception as exc:  # a crash is counted as failed scenarios, not fatal
        code, error = None, f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()

    result.update(
        run_s=t1 - t0,
        exit_code=code,
        error=error,
        scenarios=scenarios,
        max_rss_kib=_peak_rss_kib(),
    )
    if tracer is not None:
        result["spans"] = tracer.spans
    _dump(result, result_path)


def _peak_rss_kib() -> int:
    """Peak resident memory of this process image, in KiB.

    ``ru_maxrss`` also covers the image that exec replaced, which is the
    benchmark's own process when it is spawned by vfork, so Linux's
    per-image high-water mark is used where it exists.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _dump(result: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:])
