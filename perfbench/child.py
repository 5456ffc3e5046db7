"""One benchmark pass in a fresh interpreter.

    python3 perfbench/child.py CONFIG OUT_DIR RECORD [--trace] [--setup-only]

Imports sftlab and loads and validates CONFIG, which marks the pass ready
(``time.monotonic()``, comparable with the parent's clock).  Then it runs
``sftlab run CONFIG --out OUT_DIR`` in-process and writes a JSON record with
the ready time, its peak RSS, any experiment that raised, and with
``--trace`` the per-layer span tables.  An experiment that raises is recorded
as a failed result with its error type and message, so the other
experiments still run and the summary is still written.
"""
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv):
    config, out_dir, record_path = argv[:3]
    flags = set(argv[3:])

    from sftlab import cli

    cli._normalize(cli._load_config(config), config)
    ready = time.monotonic()

    import resource

    import numpy

    record = {"ready": ready, "python": sys.version.split()[0],
              "numpy": numpy.__version__, "errors": []}
    if "--setup-only" in flags:
        Path(record_path).write_text(json.dumps(record))
        return 0

    tracer = None
    if "--trace" in flags:
        import tracer as tracing

        tracer = tracing.install()

    from sftlab.experiments import ExperimentResult

    run_one = cli._run_one

    def guarded(name, seed, params):
        try:
            return run_one(name, seed, params)
        except Exception as exc:  # one experiment must not end the batch
            record["errors"].append({"experiment": name,
                                     "type": type(exc).__name__,
                                     "message": str(exc)})
            return ExperimentResult(name, False, {
                "error": type(exc).__name__, "message": str(exc)})

    cli._run_one = guarded
    code = cli.main(["run", config, "--out", out_dir])
    if tracer is not None:
        record["trace"] = tracer.report()
    record["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record["exit_code"] = code
    Path(record_path).write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
