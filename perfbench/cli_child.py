"""Traced stand-in for `python -m chain_spectra.cli`.

Usage: python perfbench/cli_child.py SPANS_PATH SUBCOMMAND [ARGS...]

Times the import of `chain_spectra.cli`, installs the span wrappers from
`tracer.py`, calls `chain_spectra.cli.main` with the remaining arguments and
exits with its code.  The spans and the import time go to SPANS_PATH when
the process ends, so the parent can attribute them to the case it ran.
"""

import sys
import time

t0 = time.perf_counter()
import chain_spectra.cli  # noqa: E402

import_ms = 1e3 * (time.perf_counter() - t0)

import tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tr = tracer.Tracer()
    tr.case = "child"
    tr.install()
    try:
        code = chain_spectra.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        tr.uninstall()
        sys.stdout.flush()
        tr.write(spans_path)
        with open(spans_path + ".import_ms", "w", encoding="utf-8") as fh:
            fh.write(repr(import_ms))
    return code


if __name__ == "__main__":
    sys.exit(main())
