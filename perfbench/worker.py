"""One cold round: import comaj, then run each unit through ``cli.main``.

Reads a JSON spec on stdin: {"units": [argv, ...], "spans": path or null}.
With a spans path the round is traced (see tracing.py) and the spans are
written there.  Prints one JSON line with the set-up time, each unit's
timings and output checks, the host-speed probes taken around set-up and
after every unit, the peak RSS and, when traced, the layer summary.

The set-up clock covers ``import comaj`` plus building the CLI parser.
Before it the worker imports only the probe loop and stdlib modules that
comaj imports itself, so the figure is what a user's ``comaj`` process pays.
"""

import hashlib
import json
import sys
import time

from probe import best_seconds

# Host-speed probe taken around set-up and after every unit: best of 3 passes
# of a loop of about 7 ms on a calm 2-core host.
UNIT_PROBE = (100_000, 3)


class Capture:
    """Stand-in for sys.stdout that notes when the first report line ends."""

    def __init__(self) -> None:
        self.first = None
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        if self.first is None and "\n" in text:
            self.first = time.perf_counter()
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def _non_pass(lines: list[str]) -> int:
    """Report lines whose status is not "pass" (unparsable lines included)."""
    bad = 0
    for line in lines:
        try:
            status = json.loads(line).get("status")
        except (ValueError, AttributeError):
            status = None
        bad += status != "pass"
    return bad


def run_unit(main, argv: list[str]) -> dict:
    real_stdout = sys.stdout
    out = Capture()
    sys.stdout = out
    start = time.perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crashing unit is a failed unit; keep the round going
        import traceback

        traceback.print_exc()
        code = "exception"
    finally:
        end = time.perf_counter()
        sys.stdout = real_stdout
    text = "".join(out.parts)
    data = text.encode("utf-8")
    lines = text.splitlines()
    return {
        "t": end - start,
        "first": (out.first if out.first is not None else end) - start,
        "exit": code,
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
        "lines": len(lines),
        "non_pass": _non_pass(lines),
    }


def main() -> None:
    probes = [best_seconds(*UNIT_PROBE)]
    setup_start = time.perf_counter()
    from comaj import cli

    cli.build_parser()
    setup_s = time.perf_counter() - setup_start
    probes.append(best_seconds(*UNIT_PROBE))
    import resource

    from tracing import Tracer

    spec = json.loads(sys.stdin.read())
    tracer = None
    entry = cli.main
    if spec.get("spans"):
        tracer = Tracer()
        tracer.install()
        entry = tracer.span("cli.main", cli.main)
    units = []
    for argv in spec["units"]:
        units.append(run_unit(entry, argv))
        probes.append(best_seconds(*UNIT_PROBE))
    result = {
        "module": cli.__file__,
        "setup_s": setup_s,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "units": units,
        "probes": probes,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.dump(spec["spans"])
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
