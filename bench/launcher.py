"""Run one `sphere4` CLI command with the benchmark's spans installed.

Usage: python3 bench/launcher.py SPANS_JSON COMMAND [ARGS...]

Equivalent to `python -m sphere4 COMMAND [ARGS...]`, except that the
wrappers of `spans.install` are in place while `sphere4.cli.main` runs and
the spans are written to SPANS_JSON afterwards. Exits with main's code.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import sphere4.cli  # noqa: E402

from spans import Tracer, install  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        code = sphere4.cli.main(argv)
    finally:
        uninstall()
        tracer.dump(out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
