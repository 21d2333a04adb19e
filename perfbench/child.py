"""Run one ``fracgcl`` command in a fresh Python, optionally traced.

Usage: ``python child.py SPANS_PATH|- fracgcl-args...``

With a spans path, the child times ``import fracgcl.cli`` as the span
``cli.import``, installs the span wrappers, runs ``fracgcl.cli.main(argv)``
inside the span ``cli.<command>.main`` and writes its spans to the path.
With ``-`` it only imports and runs the command, so untraced runs pay
nothing for tracing.  The exit code is the command's.

The BLAS thread variables are set by the parent in this process's
environment, so they are in place before numpy loads.
"""

import os
import sys


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    if spans_path == "-":
        import fracgcl.cli

        return fracgcl.cli.main(argv)
    import spans

    tracer = spans.Tracer(run_id=os.environ.get("PERFBENCH_RUN_ID", "child"))
    with tracer.span("cli.import"):
        import fracgcl.cli
    spans.install(tracer)
    try:
        with tracer.span(f"cli.{argv[0]}.main"):
            code = fracgcl.cli.main(argv)
    finally:
        spans.write(tracer.records(), spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
