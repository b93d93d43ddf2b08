"""Traced CLI process for the course_cli workload.

Installs the benchmark's wrappers, runs ``netergm.cli.main`` on the given
arguments, and writes the spans it recorded, plus the wrapped names it did
not find, to a JSON file whatever the exit code.

    python bench/cli_runner.py SPANS_JSON SUBCOMMAND [OPTIONS...]
"""

import json
import sys

import netergm.cli

from spans import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return netergm.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "absent": tracer.absent}, fh)


if __name__ == "__main__":
    sys.exit(main())
