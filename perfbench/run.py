#!/usr/bin/env python3
"""Host-wall and per-layer benchmark of the Asbestos reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload echo_warm --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced run;
``--trace 1`` reports the per-layer metrics of a traced run.  Workloads,
metrics and the layer-to-metric map are described in ``BENCHMARK.json``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status: 0
for a correct run, 1 when an oracle found a leak, 2 for a usage or
set-up error (for example, no ``src/repro`` next to this directory).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("echo_warm", "profile_mix", "cluster_courier")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    from harness import run
    from workloads import LeakError, SetupError

    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except SetupError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    except LeakError as err:
        print(f"perfbench: LEAK: {err}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run is using it
    failures = result.pop("failures")
    print(f"perfbench: {args.workload} failures by kind: {json.dumps(failures, sort_keys=True)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
