"""Command-line interface for chain spectra.

Subcommands:
  spectrum  mode frequencies, ground energy and single-phonon levels
  verify    residual battery for the analytic eigendecomposition
  bound     supremum of admissible coupling strengths
  plot      SVG level diagram, one column per panel
  export    CSV of enumerated energy levels with degeneracies

Each family takes at most one parameter: --alpha (hahn), --q (qkrawtchouk)
or --gamma (custom), in a plot panel the key alpha or q.  One rule holds for
flags and panels alike: a family's parameter is required for it and refused
for every other family.

Exit codes: 0 success, 1 failed verification, 2 invalid flags, values the
library refuses (one line, no usage banner) or unsupported family/operation
combinations (also an unwritable --out or stdout, and frequencies or
energies outside float range), 3 chain not positive definite, 4 over
budget (export: more than chain.LEVEL_CAP occupation states; plot: more
than LEVEL_CAP levels in all, n per panel; spectrum: more than
chain.NUMERIC_CAP modes; verify: more than jacobi.VERIFY_CAP modes), each
refused before numpy is imported, or a command that runs out of memory.

Only spectrum and export take --hbar, the two whose payloads hold energies:
bound and verify never read it, and plot rescales its levels to [0, 1],
where hbar cancels.

Diagnostics (including wall-clock time) go to stderr; payloads go to
stdout or --out, byte-deterministic for fixed inputs.  A stderr that cannot
be written loses the diagnostics but never changes the exit code.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from .chain import (
    LEVEL_CAP,
    ChainSpec,
    ConstantInteraction,
    CustomInteraction,
    DualQKrawtchoukInteraction,
    HahnInteraction,
    KrawtchoukInteraction,
    LevelTable,
    _piece_rows,
    enumerate_levels,
    ground_energy,
    max_coupling,
    mode_frequencies,
    rescale_levels,
    single_phonon_levels,
)
from .errors import (
    BudgetExceeded,
    ChainSpectraError,
    ClosedFormUnavailable,
    NotPositiveDefinite,
    UnsupportedFamily,
)
from .jacobi import verify_family

# SVG canvas, in px.
_SVG_WIDTH = 840.0
_SVG_HEIGHT = 420.0
_SVG_MARGIN = 42.0

# Each family's interaction class and the flag carrying its parameter, or
# None; the flag is also the family's key in a plot panel.
_FAMILIES = {
    "constant": (ConstantInteraction, None),
    "krawtchouk": (KrawtchoukInteraction, None),
    "hahn": (HahnInteraction, "alpha"),
    "qkrawtchouk": (DualQKrawtchoukInteraction, "q"),
    "custom": (CustomInteraction, "gamma"),
}


def _build_chain(parser, family: str, params: dict, **fields) -> ChainSpec:
    """The chain of a family, from the parameters given, keyed by flag name,
    and the other ChainSpec fields.  The family's own flag is required and
    every other family's refused, so params is left with the family's
    parameter alone.  A value the library refuses raises its error."""
    for other, (_, flag) in _FAMILIES.items():
        if other == family and flag is not None and flag not in params:
            parser.error(f"--{flag} is required for the {family} family")
        if other != family and flag in params:
            parser.error(f"--{flag} only applies to the {other} family")
    return ChainSpec(interaction=_FAMILIES[family][0](*params.values()), **fields)


def _chain_from_args(parser: argparse.ArgumentParser, args) -> ChainSpec:
    params = {f: v for _, f in _FAMILIES.values() if f and (v := getattr(args, f)) is not None}
    if args.family == "custom" and args.gamma is not None:
        try:
            params["gamma"] = tuple(map(float, args.gamma.split(","))) if args.gamma else ()
        except ValueError:
            parser.error(f"--gamma must be a comma-separated float list, got {args.gamma!r}")
    hbar = {"hbar": args.hbar} if "hbar" in args else {}  # verify and bound take none
    return _build_chain(
        parser, args.family, params, n=args.n, omega=args.omega, coupling=args.c, **hbar
    )


def _spec_echo(family: str, chain: ChainSpec) -> dict:
    echo = {
        "family": family,
        "n": chain.n,
        "omega": chain.omega,
        "coupling": chain.coupling,
        "hbar": chain.hbar,
    }
    flag = _FAMILIES[family][1]
    if flag is not None:
        (param,) = vars(chain.interaction).values()  # its only field
        echo[flag] = list(param) if isinstance(param, tuple) else param
    return echo


def _diagnose(line: str) -> None:
    """Write one line to stderr.  A lost diagnostic never changes the exit
    code, so an OSError from stderr is swallowed."""
    try:
        print(line, file=sys.stderr)
    except OSError:
        pass


def _pd_failure(chain: ChainSpec) -> tuple[int, None]:
    try:
        bound = max_coupling(chain)
        hint = "unbounded" if math.isinf(bound) else repr(bound)
        _diagnose(f"chain is not positive definite; maximum admissible coupling: {hint}")
    except UnsupportedFamily:
        _diagnose("chain is not positive definite")
    return 3, None


def _cmd_spectrum(parser, args):
    chain = _chain_from_args(parser, args)
    custom = chain.family is None
    try:
        numeric = mode_frequencies(chain, method="numeric")
        closed = None if custom else mode_frequencies(chain, method="closed")
    except NotPositiveDefinite:
        return _pd_failure(chain)
    residual = None
    if closed is not None:
        residual = max(
            abs(a - b) / a for a, b in zip(closed.omegas, numeric.omegas)
        )
    # The levels come from the spectrum mode_frequencies(chain) would give:
    # closed form where it exists, numeric otherwise.
    spectrum = numeric if closed is None else closed
    ground = ground_energy(chain, spectrum)
    levels = single_phonon_levels(chain, spectrum)
    payload = {
        "spec": _spec_echo(args.family, chain),
        "omegas_closed": None if closed is None else list(closed.omegas),
        "omegas_numeric": list(numeric.omegas),
        "ground_energy": ground,
        "single_phonon_levels": list(levels),
        "residual_closed_vs_numeric": residual,
    }
    if args.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        rows = ["index,omega_closed,omega_numeric,single_phonon_level"]
        for t in range(chain.n):
            wc = "" if closed is None else repr(closed.omegas[t])
            rows.append(f"{t},{wc},{numeric.omegas[t]!r},{levels[t]!r}")
        text = "\n".join(rows) + "\n"
    else:
        lines = [
            "spec: " + " ".join(f"{k}={v}" for k, v in payload["spec"].items()),
            f"ground_energy {ground:.6g}",
            "index omega_closed omega_numeric single_phonon_level",
        ]
        for t in range(chain.n):
            wc = "-" if closed is None else format(closed.omegas[t], ".6g")
            lines.append(
                f"{t} {wc} {numeric.omegas[t]:.6g} {levels[t]:.6g}"
            )
        if residual is not None:
            lines.append(f"residual_closed_vs_numeric {residual:.6g}")
        text = "\n".join(lines) + "\n"
    return 0, text


def _cmd_verify(parser, args):
    fam = _chain_from_args(parser, args).family
    if fam is None:
        raise ClosedFormUnavailable("custom interactions have no closed-form spectrum")
    eigenvalues, rows = verify_family(fam, perturb=args.perturb)
    lines = [
        "eigenvalues " + " ".join(format(v, ".6g") for v in eigenvalues),
        "check value threshold status",
    ]
    for name, value, thr, passed in rows:
        lines.append(f"{name} {value:.3e} {thr:.3e} {'pass' if passed else 'FAIL'}")
    ok = all(passed for *_, passed in rows)
    return (0 if ok else 1), "\n".join(lines) + "\n"


def _cmd_bound(parser, args):
    bound = max_coupling(_chain_from_args(parser, args))
    return 0, ("unbounded" if math.isinf(bound) else repr(bound)) + "\n"


_DEFAULT_PANELS = (
    "constant:c=0.5",
    "krawtchouk:c=0.18",
    "qkrawtchouk:q=1.6,c=1.0",
    "qkrawtchouk:q=0.7,c=0.01",
)


def _parse_panel(parser, text: str):
    fam, _, rest = text.partition(":")
    if fam not in _FAMILIES or fam == "custom":
        parser.error(f"unknown panel family {fam!r}")
    keys = {}
    if rest:
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                parser.error(f"panel entry {item!r} is not key=value")
            name = key.strip()
            if name not in ("c", "alpha", "q"):
                parser.error(f"panel key {name!r} is not c, alpha or q")
            if name in keys:
                parser.error(f"panel key {name!r} is repeated")
            try:
                keys[name] = float(value)
            except ValueError:
                parser.error(f"panel value for {key!r} is not a number")
    if "c" not in keys:
        parser.error(f"panel {text!r} must set c")
    return fam, keys


def _panel_label(idx: int, fam: str, keys: dict) -> str:
    parts = [f"{k}={keys[k]:g}" for k in sorted(keys)]
    return f"({chr(ord('a') + idx)}) {fam} " + " ".join(parts)


def _render_svg(panels) -> str:
    width, height, margin = _SVG_WIDTH, _SVG_HEIGHT, _SVG_MARGIN
    band = (width - 2 * margin) / max(len(panels), 1)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.2f}" height="{height:.2f}" '
        f'viewBox="0 0 {width:.2f} {height:.2f}">',
        f'<rect x="0" y="0" width="{width:.2f}" height="{height:.2f}" '
        'fill="white"/>',
    ]
    top = margin + 18.0
    bottom = height - margin

    def y_of(r: float) -> float:
        return bottom - r * (bottom - top)

    for idx, (label, rescaled) in enumerate(panels):
        x0 = margin + idx * band
        x1 = x0 + band * 0.78
        axis_x = x0
        parts.append(
            f'<text x="{x0:.2f}" y="{margin:.2f}" font-family="monospace" '
            f'font-size="11">{label}</text>'
        )
        parts.append(
            f'<line x1="{axis_x:.2f}" y1="{y_of(0.0):.2f}" x2="{axis_x:.2f}" '
            f'y2="{y_of(1.0):.2f}" stroke="gray" stroke-width="1"/>'
        )
        for tick in (0.0, 0.5, 1.0):
            ty = y_of(tick)
            parts.append(
                f'<line x1="{axis_x - 4:.2f}" y1="{ty:.2f}" x2="{axis_x:.2f}" '
                f'y2="{ty:.2f}" stroke="gray" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{axis_x - 28:.2f}" y="{ty + 4:.2f}" '
                f'font-family="monospace" font-size="10">{tick:.1f}</text>'
            )
        for r in rescaled:
            ry = y_of(r)
            parts.append(
                f'<line x1="{x0 + 8:.2f}" y1="{ry:.2f}" x2="{x1:.2f}" '
                f'y2="{ry:.2f}" stroke="black" stroke-width="1.2"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_plot(parser, args):
    specs = args.panel if args.panel else list(_DEFAULT_PANELS)
    # n levels per panel, refused before any panel's chain is built.
    if len(specs) * args.n > LEVEL_CAP:
        raise BudgetExceeded(
            f"{len(specs)} x {args.n} plot levels exceed the budget of {LEVEL_CAP}"
        )
    panels = []
    for idx, text in enumerate(specs):
        fam, keys = _parse_panel(parser, text)
        params = {k: v for k, v in keys.items() if k != "c"}
        # The levels are rescaled to [0, 1], so hbar cancels.
        chain = _build_chain(parser, fam, params, n=args.n, omega=args.omega, coupling=keys["c"])
        try:
            levels = single_phonon_levels(chain)
        except NotPositiveDefinite:
            return _pd_failure(chain)
        panels.append((_panel_label(idx, fam, keys), rescale_levels(levels)))
    return 0, _render_svg(panels)


def _cmd_export(parser, args):
    chain = _chain_from_args(parser, args)
    try:
        table = enumerate_levels(chain, args.levels)
    except NotPositiveDefinite:
        return _pd_failure(chain)
    return 0, _csv_chunks(table, args.levels)


def _csv_chunks(table: LevelTable, max_total: int):
    """The export CSV of a level table, yielded in pieces of
    chain._piece_rows member rows, so that neither the whole text nor more
    than one piece's budget of occupation entries is held at once.

    Occupation k is written through a lookup row holding "|" and the digits
    of k, padded with zero bytes to a common width: the rows of a piece are
    gathered from it as one byte array and the padding dropped.  The "|" before a
    member's first entry becomes ";" between the members of a level and a
    line break before a level's first member.  So the lines of a piece's
    text are the tail of the level it opens in, then the members of each
    level that starts in it.
    """
    import numpy as np
    width = len(str(max_total)) + 1
    lookup = np.zeros((max_total + 1, width), dtype=np.uint8)
    for k in range(max_total + 1):
        digits = f"|{k}".encode("ascii")
        lookup[k, : len(digits)] = np.frombuffer(digits, dtype=np.uint8)
    starts = table.offsets[:-1]
    rows = _piece_rows(table)
    yield "energy,degeneracy,occupations"
    for lo in range(0, len(table.occupations), rows):
        chars = lookup[table.occupations[lo : lo + rows]]
        chars[:, 0, 0] = ord(";")
        first, last = np.searchsorted(starts, (lo, lo + rows)).tolist()
        chars[starts[first:last] - lo, 0, 0] = ord("\n")
        tail, *members = chars[chars != 0].tobytes().decode("ascii").split("\n")
        energies = table.energies[first:last].tolist()
        degeneracies = table.degeneracies[first:last].tolist()
        yield tail
        yield "".join(
            [f"\n{e!r},{d},{m}" for e, d, m in zip(energies, degeneracies, members)]
        )
    yield "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chain-spectra",
        description="Spectra of harmonic chains with position-dependent coupling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_chain_flags(p):
        p.add_argument("--family", required=True, choices=_FAMILIES)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--q", type=float, default=None)
        p.add_argument("--gamma", type=str, default=None)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--omega", type=float, default=1.0)
        p.add_argument("--c", type=float, default=0.0)
        p.add_argument("--out", type=str, default=None)

    p_spectrum = sub.add_parser("spectrum", help="mode frequencies and levels")
    add_chain_flags(p_spectrum)
    p_spectrum.add_argument("--hbar", type=float, default=1.0)
    p_spectrum.add_argument("--format", choices=("json", "csv", "text"), default="json")

    p_verify = sub.add_parser("verify", help="analytic-vs-numeric residual battery")
    add_chain_flags(p_verify)
    p_verify.add_argument("--perturb", action="store_true")

    p_bound = sub.add_parser("bound", help="supremum of admissible coupling")
    add_chain_flags(p_bound)

    p_plot = sub.add_parser("plot", help="SVG level diagram")
    p_plot.add_argument("--panel", action="append", default=None)
    p_plot.add_argument("--n", type=int, default=12)
    p_plot.add_argument("--omega", type=float, default=1.0)
    p_plot.add_argument("--out", type=str, required=True)

    p_export = sub.add_parser("export", help="CSV of enumerated levels")
    add_chain_flags(p_export)
    p_export.add_argument("--hbar", type=float, default=1.0)
    p_export.add_argument("--levels", type=int, required=True)

    return parser


# Each command returns (exit code, payload or None), the payload as one text
# or an iterable of texts in order; main writes it to stdout or --out and
# its wall time to stderr.
_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "verify": _cmd_verify,
    "bound": _cmd_bound,
    "plot": _cmd_plot,
    "export": _cmd_export,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    # export's pieces are computed while they are written, so the write
    # runs under the same handlers as the command.
    try:
        code, text = _COMMANDS[args.command](parser, args)
        if text is not None:
            to_stdout = args.out is None
            try:
                fh = sys.stdout if to_stdout else open(args.out, "w", encoding="utf-8")
                try:
                    for piece in [text] if isinstance(text, str) else text:
                        fh.write(piece)
                    fh.flush()
                finally:
                    if not to_stdout:
                        fh.close()
            except OSError as exc:
                if to_stdout:
                    # What is left in the stdout buffer goes to os.devnull,
                    # so the flush at interpreter exit cannot fail again.
                    import os
                    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                name = "stdout" if to_stdout else args.out
                _diagnose(f"cannot write {name}: {exc.strerror or exc}")
                return 2
            _diagnose(f"wall_ms={1e3 * (time.perf_counter() - t0):.3f}")
    except BudgetExceeded as exc:
        _diagnose(str(exc))
        return 4
    except ChainSpectraError as exc:
        _diagnose(str(exc))
        return 2
    except MemoryError:
        _diagnose(f"{args.command} ran out of memory")
        return 4
    return code


if __name__ == "__main__":
    sys.exit(main())
