"""Run ``repro serve`` with the benchmark's span tracer installed.

Usage: ``python3 perfbench/serve_launcher.py SPANS_JSON [serve options...]``

Imports ``repro`` from the checkout's ``src``, wraps the layer entry points
(see :func:`tracer.install_layer_wrappers`), runs the ``serve`` command
until the daemon shuts down, then writes every span to ``SPANS_JSON``.
"""

from __future__ import annotations

import sys

from common import import_repro
from tracer import Tracer, install_layer_wrappers


def main(argv: list) -> int:
    spans_path, serve_args = argv[0], argv[1:]
    import_s = import_repro()
    import repro.cli

    tracer = Tracer()
    install_layer_wrappers(tracer)
    try:
        return repro.cli.main(["serve", *serve_args])
    finally:
        tracer.dump(spans_path, import_s=import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
