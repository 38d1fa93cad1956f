"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is the result document
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the run's metadata (instrumentation regime, seed, nproc, library versions,
plan fingerprints).  With ``--trace 1`` the metrics are the per-layer ones
and every span is written to ``.perfbench/spans-<workload>-<seed>.json``.
Workloads and metrics are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("compile-batch", "serve-triangle")


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy-size shapes and phases (self-test only)")
    parser.add_argument("--inject-wrong", action="store_true",
                        help="drop one tuple from one answer before it is "
                             "checked (self-test of the answer checker)")
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        return _fail(f"no program source at {os.path.join(ROOT, 'src')}; "
                     f"run from the root of a repository checkout")
    try:
        with open(spec_path) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)

    from perfbench.calib import Calibration

    # Host-speed samples are taken from here to the end, so the program's
    # imports (part of setup_s) are sampled too.
    with Calibration() as cal:
        from perfbench import bench

        problems = bench.production_guard()
        if problems:
            return _fail("not on the production path: "
                         + "; ".join(problems))
        import_s = time.perf_counter() - _T_START - cal.built_s

        result, meta = bench.run(ROOT, args.workload, args.seed,
                                 args.seconds, bool(args.trace), args.toy,
                                 args.inject_wrong, import_s, cal)
    units = {m["name"]: m["unit"] for m in
             spec["per_layer" if args.trace else "end_to_end"]}
    missing = sorted(set(units) - set(result["metrics"]))
    extra = sorted(set(result["metrics"]) - set(units))
    if missing or extra:
        return _fail(f"metrics differ from BENCHMARK.json: missing "
                     f"{missing}, unexpected {extra}")
    result["metrics"] = {name: {"value": float(result["metrics"][name]),
                                "unit": unit}
                         for name, unit in units.items()}
    print(json.dumps({"perfbench_meta": meta}, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
