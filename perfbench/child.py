"""One benchmark rep: run one elflow CLI command in a fresh process.

Usage: child.py SRC RESULT TRACE COMMAND CONFIG OUT

Imports ``elflow`` from SRC, loads and validates CONFIG (the end of set-up),
then calls ``elflow.cli.main([COMMAND, "--config", CONFIG, "--out", OUT])``.
COMMAND ``setup`` stops after set-up.  With TRACE 1 the span tracer wraps
the program's functions first.  RESULT receives, as JSON, the exit code, the
monotonic clock at the end of set-up, the peak RSS, the CPU time and, when traced, the
spans kept in memory during the run.
"""
import json
import resource
import sys
import time


def main() -> int:
    src, result_path, trace, command, config, out = sys.argv[1:7]
    sys.path.insert(0, src)
    from elflow import cli
    from elflow.config import load_config

    load_config(config)
    setup_done = time.monotonic()

    result = {"setup_done": setup_done}
    if command == "setup":
        rc = 0
    elif trace == "1":
        import tracer
        t = tracer.Tracer()
        t.install()
        try:
            rc = t.wrap(tracer.ROOT, cli.main)([command, "--config", config, "--out", out])
        finally:
            t.uninstall()
        result["spans"] = t.spans
    else:
        rc = cli.main([command, "--config", config, "--out", out])
    result["rc"] = rc
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["maxrss_kb"] = usage.ru_maxrss
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
