"""Run the ``basesize`` CLI with span tracing, in a child process.

    python3 perfbench/clishim.py SPANS.jsonl <basesize arguments...>

Writes the spans of the call to SPANS.jsonl and exits with the CLI's exit
code.  The import of ``basesize`` happens before tracing starts.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import basesize  # noqa: E402
import basesize.cli  # noqa: E402
from tracer import Tracer, write_spans  # noqa: E402


def main() -> int:
    out, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer("cli")
    tracer.install(basesize)
    try:
        return basesize.cli.main(args)
    finally:
        tracer.uninstall()
        with open(out, "w") as fh:
            write_spans(tracer.spans, fh)


if __name__ == "__main__":
    raise SystemExit(main())
