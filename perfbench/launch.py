"""Child-process entry points for the subprocess workloads.

    python launch.py --ready
        Get ready the way every qcf query does: import qcf.cli, load the
        catalog and the report schema. Prints qcf.__file__. This is the
        set-up probe.

    python -X importtime launch.py --traced OUT -- ARGV...
        Install span wrappers, run qcf.cli.main(ARGV) and write the span
        summary, with the process's own start and end stamps, to OUT.
        Exits with the command's exit code.
"""

from time import perf_counter

T_START = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def ready() -> None:
    import qcf
    import qcf.cli

    qcf.cli.load_catalog()
    qcf.cli._report_schema()
    print(qcf.__file__)


def traced(out_path: str, argv: list[str]) -> int:
    from spans import Tracer

    tracer = Tracer()
    t0 = perf_counter()
    import qcf.cli
    tracer.span("import", t0, perf_counter())
    tracer.install()
    code = 0
    try:
        qcf.cli.main.main(args=argv, prog_name="qcf", standalone_mode=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        summary = tracer.summary()
        summary["t_start"], summary["t_end"] = T_START, perf_counter()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
    return code


if __name__ == "__main__":
    if sys.argv[1:] == ["--ready"]:
        ready()
    elif len(sys.argv) > 3 and sys.argv[1] == "--traced" and sys.argv[3] == "--":
        sys.exit(traced(sys.argv[2], sys.argv[4:]))
    else:
        sys.exit(f"usage: {sys.argv[0]} --ready | --traced OUT -- ARGV...")
