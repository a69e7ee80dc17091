"""``repro serve`` with the layer wrappers installed (traced `serve` runs).

Usage: ``python serve_traced.py DUMP_DIR serve [serve flags...]``.
The wrappers go in before the daemon starts its worker pool, so the
forked workers inherit them; every process writes its running per-layer
totals to ``DUMP_DIR/layers-<pid>.json`` as each top-level call returns.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from layers import LayerTracer  # noqa: E402


def main() -> int:
    tracer = LayerTracer(rooted=False, keep_spans=False,
                         dump_dir=sys.argv[1])
    tracer.install()
    from repro.cli import main as cli_main
    return cli_main(sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
