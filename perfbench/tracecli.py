"""Run the cribmem CLI with spans recorded.

    python3 perfbench/tracecli.py SPILL_DIR COMMAND [FLAGS...]

Installs the tracer, runs ``cribmem.cli.main`` on the remaining arguments
and writes this process's spans to SPILL_DIR.  Forked pool workers inherit
the wrappers and write their own span files there after each task.
"""

import sys
from pathlib import Path

import spans


def main() -> int:
    spill = Path(sys.argv[1])
    tracer = spans.Tracer(spill_dir=spill)
    tracer.install()
    from cribmem import cli
    code = cli.main(sys.argv[2:])
    tracer.dump(spill / "spans-cli.jsonl")
    return code


if __name__ == "__main__":
    sys.exit(main())
