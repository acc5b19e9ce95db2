"""Run the mmdseg CLI once with layer tracing installed.

Usage: python3 perfbench/clitrace.py SPANS_JSON -- <mmdseg arguments>

The CLI runs in this process exactly as `python -m mmdseg.cli` would run it,
except that every traced layer function is wrapped (see tracing.py).  The
spans and the count of clamped-statistic warnings go to SPANS_JSON; the exit
code is the CLI's.
"""

import json
import sys
import warnings

import mmdseg.cli

from tracing import Tracer


def main(argv) -> int:
    out_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: clitrace.py SPANS_JSON -- <mmdseg arguments>")
    tracer = Tracer()
    tracer.install()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = mmdseg.cli.main(cli_args)
    finally:
        tracer.uninstall()
    clamps = sum("clamped" in str(w.message) for w in caught)
    with open(out_path, "w") as fh:
        json.dump({"spans": tracer.spans, "clamp_warnings": clamps}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
