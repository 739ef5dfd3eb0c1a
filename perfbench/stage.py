"""Run one `uip` CLI command in this process and record what it cost.

    python3 perfbench/stage.py --report REPORT.json [--trace SPANS.json] -- synth --out ...

It does what the `uip` console script does (`uip.cli.main(argv)`, with
`src` on PYTHONPATH as run.py sets it), then writes the exit code and the
process's peak resident memory to REPORT.
The peak is VmHWM of this process's own address space: the rusage figure
of a spawned child also counts the parent's peak, which would hide small
stages behind the benchmark's own memory. With --trace, the layer
wrappers of `tracing.py` are installed first and the spans are written to
SPANS when the command ends.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    tracer = None
    if args.trace:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    from uip.cli import main as uip_main

    try:
        rc = uip_main(argv)
    finally:
        if tracer is not None:
            tracer.dump(args.trace)
    with open(args.report, "w") as f:
        json.dump({"rc": rc, "peak_rss_mb": peak_rss_mb()}, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
