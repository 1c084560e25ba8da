"""Run the ``orya`` command line with spans recorded at its layer boundaries.

Usage: ``python3 perfbench/tracer.py SPAN_FILE ORYA_ARGS...``

It times the import of ``orya.cli`` first, before anything else is imported,
then installs the wrappers of ``spans.py``, runs ``orya.cli.main`` with the
given arguments, and writes the spans to SPAN_FILE when ``main`` returns
(for ``serve``, after an interrupt stops it). ``src/`` must be on
``PYTHONPATH``.
"""

import sys
import time


def main(argv: list[str]) -> int:
    out, args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import orya.cli

    import_ms = (time.perf_counter() - t0) * 1000
    from spans import Tracer, install

    tracer = Tracer()
    install(tracer)
    try:
        return orya.cli.main(args)
    finally:
        tracer.dump(out, import_ms=import_ms)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
