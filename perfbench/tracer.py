"""Span recording around the public functions of chain_spectra's layers.

The wrappers are installed at run time from the benchmark's side; the
package itself is not modified.  `Tracer.install` wraps every public
function defined in `chain_spectra.polynomials`, `.jacobi`, `.chain` and
`.cli`, and rebinds every name in the package that refers to one of them
(for example `chain.numeric_decomposition` or `cli.enumerate_levels`), so a
call made from an upper layer is recorded under the layer that defines the
function.

A span is the tuple (id, parent id or -1, case id, name, tag, start_ns,
end_ns).  Spans stay in memory until `write` is called once, when the run
ends.  This module imports nothing outside the standard library, so that
the traced CLI launcher can time the package's import on its own.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import sys
import time

LAYERS = ("polynomials", "jacobi", "chain", "cli")


def _mode_method(args, kwargs):
    # Resolves method="auto" the way the library documents it: closed form
    # unless the interaction is custom.
    method = kwargs.get("method", args[1] if len(args) > 1 else "auto")
    if method == "auto":
        custom = type(args[0].interaction).__name__ == "CustomInteraction"
        return "numeric" if custom else "closed"
    return method


def _family_size(args, kwargs):
    return args[0].N + 1


def _matrix_size(args, kwargs):
    return args[0].size


def _subcommand(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else None


# Extra detail recorded on a few spans: the mode-frequency method, the
# matrix size of a decomposition and the CLI subcommand.
TAGS = {
    "chain.mode_frequencies": _mode_method,
    "jacobi.analytic_decomposition": _family_size,
    "jacobi.numeric_decomposition": _matrix_size,
    "cli.main": _subcommand,
}


class Tracer:
    """Records spans while installed and `case` is set; `case` labels the
    spans of the case being run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.case = None
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patched: list[tuple] = []

    def install(self) -> None:
        for layer in LAYERS:
            importlib.import_module(f"chain_spectra.{layer}")
        package = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "chain_spectra" or name.startswith("chain_spectra.")
        }
        for layer in LAYERS:
            mod = package[f"chain_spectra.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for holder in package.values():
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, name, wrapper)
                            self._patched.append((holder, name, fn))

    def uninstall(self) -> None:
        for holder, name, fn in reversed(self._patched):
            setattr(holder, name, fn)
        self._patched.clear()

    def _wrap(self, name, fn):
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter_ns
        tag_of = TAGS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.case is None:  # outside a case, e.g. the harness's own checks
                return fn(*args, **kwargs)
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tag = tag_of(args, kwargs) if tag_of else None
                spans.append((sid, parent, tracer.case, name, tag, t0, t1))

        return wrapper

    def adopt(self, spans, case) -> None:
        """Append spans recorded by another process, renumbered into this
        tracer's id space and labelled with `case`."""
        offset = next(self._ids)
        for _ in range(max((s[0] for s in spans), default=0)):
            next(self._ids)  # reserve the adopted ids
        self.spans.extend(
            (offset + sid, offset + parent if parent >= 0 else -1, case, name, tag, t0, t1)
            for sid, parent, _, name, tag, t0, t1 in spans
        )

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write("\t".join("" if v is None else str(v) for v in span))
                fh.write("\n")


def read_spans(path) -> list[tuple]:
    """Spans written by `Tracer.write`; case ids come back as strings."""
    out = []
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        for line in fh:
            sid, parent, case, name, tag, t0, t1 = line.rstrip("\n").split("\t")
            if tag.lstrip("-").isdigit():
                tag = int(tag)
            out.append(
                (int(sid), int(parent), case or None, name, tag or None,
                 int(t0), int(t1))
            )
    return out
