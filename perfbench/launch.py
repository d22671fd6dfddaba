"""Runs the bwkit command line as its console script would: main(argv) from
bwkit.cli, with the exit code it returns.  Started with src on PYTHONPATH,
so it works in a checkout without an install.

    python perfbench/launch.py [--peak <file>] <verb> [options]
    python perfbench/launch.py --trace <spans.json> <input-id> <verb> [options]

With --trace, the tracing wrappers are installed before main runs, and the
spans plus the child's own start, import and end times go to <spans.json>.
Without it, this is the plain launcher and nothing else is loaded; --peak
writes the process's own peak RSS in KiB (VmHWM) to <file> once main returns.
"""

import sys
import time

if __name__ == "__main__":
    if sys.argv[1:2] == ["--trace"]:
        start = time.monotonic()
        import tracing

        spans_path, input_id, argv = sys.argv[2], int(sys.argv[3]), sys.argv[4:]
        t = time.monotonic()
        import bwkit.cli

        import_s = time.monotonic() - t
        rec = tracing.Recorder()
        rec.input_id = input_id
        tracing.install(rec)
        try:
            code = bwkit.cli.main(argv)
        finally:
            rec.dump(spans_path, start=start, end=time.monotonic(), import_s=import_s)
        sys.exit(code)
    argv, peak_path = sys.argv[1:], None
    if argv[:1] == ["--peak"]:
        peak_path, argv = argv[1], argv[2:]
    from bwkit.cli import main

    code = main(argv)
    if peak_path:
        with open("/proc/self/status", encoding="ascii") as fh:
            peak = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
        with open(peak_path, "w", encoding="ascii") as fh:
            fh.write(peak)
    sys.exit(code)
