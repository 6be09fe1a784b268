"""Run ``repro serve`` with the layer wrappers installed (traced runs).

Usage: ``python3 perfbench/serve_child.py --span-dir DIR --out FILE serve ...``

Installs :class:`tracer.Tracer` before the CLI builds anything, runs
the CLI until SIGTERM drains the server, then writes the merged layer
totals to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from tracer import Tracer  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--span-dir", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    args, cli_args = parser.parse_known_args(argv)
    tracer = Tracer(args.span_dir)
    tracer.install()
    from repro.cli import main as cli_main

    code = cli_main(cli_args)
    args.out.write_text(json.dumps(asdict(tracer.collect())))
    return code


if __name__ == "__main__":
    sys.exit(main())
