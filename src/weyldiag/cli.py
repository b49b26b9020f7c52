"""Command line front end with stable text formats and exit codes.

Exit codes: 0 success or verified, 1 verification failure, 2 usage error
or unwritable --output, 3 precondition error (non-reduced word,
out-of-range index, invalid rank), 4 sweep size cap exceeded.

The argparse tree is built once per process, on the first run().  Each
subcommand declares its inputs there (--type/--rank, --word, --p/--m), and
the dispatcher builds them once, in this order: the root system (an
invalid rank is exit 3; a valid one prints its notes, e.g. for D3), the
word (a malformed one is exit 2), the grid shape.  That order decides which
error a bad invocation reports first.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import sys
from dataclasses import asdict, dataclass

from .errors import DomainError, NotReducedError, SizeCapError, UsageError, WeylDiagError
from .roots import FAMILIES, CartanType, RootSystem, build_root_system
from .words import Word, _parse_int, _parse_ints, format_word, reduced_word
from .diagrams import Diagram, _interval_points, diagram_for, format_diagram, is_positive, zeta
from .grid import (
    GridShape,
    is_le_diagram,
    parse_grid,
    pipe_dream_permutation,
    quantum_matrices_word,
    render_wiring,
)
from .verify import _guard_sweep, enumerate_positive, longest_word_census, verify_word

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_SIZE_CAP = 4

# Exit code of each error class; any other WeylDiagError is a usage error.
_ERROR_EXITS = (
    (SizeCapError, EXIT_SIZE_CAP),
    ((NotReducedError, DomainError), EXIT_PRECONDITION),
)


@dataclass
class CommandResult:
    exit_code: int
    stdout: str
    stderr: str


def parse_word(system: RootSystem, text: str) -> Word:
    """Comma-separated 1-based letters; the empty string is the empty word."""
    return Word(system, _parse_ints(text))


def parse_diagram(word: Word, text: str) -> Diagram:
    return Diagram(word, _parse_ints(text))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="weyldiag",
        description=(
            "Positive (admissible) diagrams over reduced words in finite Weyl "
            "groups, with the type-A grid specialization."
        ),
        epilog=(
            "Words and diagrams are comma-separated 1-based integers ('1,2,1'); "
            "grids are space-separated 'row,col' boxes ('1,2 2,2')."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, *, system=False, word=False, grid=False):
        cmd = sub.add_parser(name, help=help_text)
        if system:
            cmd.add_argument("--type", required=True, choices=list(FAMILIES),
                             help="Cartan family")
            cmd.add_argument("--rank", required=True, type=_parse_int, help="rank n")
        if word:
            cmd.add_argument("--word", required=True,
                             help="reduced word, e.g. '1,2,1'")
        cmd.add_argument("--format", choices=["text", "json"], default="text")
        if grid:
            cmd.add_argument("--p", required=True, type=_parse_int, help="rows")
            cmd.add_argument("--m", required=True, type=_parse_int, help="columns")
        return cmd

    add("roots", "print the positive roots", system=True)

    add("betas", "print the root sequence of a reduced word", system=True, word=True)

    cmd = add("positive", "test one diagram for positivity", system=True, word=True)
    cmd.add_argument("--diagram", required=True, help="positions, e.g. '2,3'")

    cmd = add("zeta", "map a diagram to its group element", system=True, word=True)
    cmd.add_argument("--diagram", required=True)

    cmd = add("diagram-for", "positive diagram of an interval element", system=True, word=True)
    cmd.add_argument("--element", required=True,
                     help="any word whose product is the element, e.g. '2'")

    add("enumerate", "list all positive diagrams", system=True, word=True)

    add("interval", "size of the Bruhat interval below the word", system=True, word=True)

    cmd = add("verify", "full verification report (exit 0 iff all checks pass)",
              system=True, word=True)
    cmd.add_argument("--order-stats", action="store_true",
                     help="include inclusion-vs-Bruhat statistics (reported, not asserted)")
    cmd.add_argument("--elapsed", action="store_true", help="include wall time")
    cmd.add_argument("--output", help="write the JSON report to this path")

    add("census", "positive-diagram count over a longest word vs group order",
        system=True)

    add("qm", "emit the grid word for a p x m grid", grid=True)

    cmd = add("le", "test a grid filling for the Le property", grid=True)
    cmd.add_argument("--grid", required=True, help="boxes, e.g. '1,2 2,2'")

    cmd = add("pipedream", "pipe-dream permutation of a grid filling", grid=True)
    cmd.add_argument("--grid", required=True)
    cmd.add_argument("--render", action="store_true", help="print the wiring drawing")

    return parser


def _emit(out, args, payload: dict | None, text_lines: list[str] | None) -> None:
    # The payload for --format json, the lines for text; a command may build
    # only the one its format reads.
    if args.format == "json":
        # Streamed: no string of the whole document is built.
        json.dump(payload, out, indent=2)
        out.write("\n")
    else:
        for line in text_lines:
            out.write(line + "\n")


def _system_of(args, err) -> RootSystem:
    system = build_root_system(CartanType(args.type, args.rank))
    for note in system.warnings:
        err.write(f"note: {note}\n")
    return system


def _shape_of(args, err) -> GridShape:
    shape = GridShape(args.p, args.m)
    if shape.degenerate:
        err.write("note: single-row or single-column grid; "
                  "outside the usual quantum-matrices range\n")
    return shape


def _key_value_lines(payload: dict) -> list[str]:
    return [f"{key} {json.dumps(value)}" for key, value in payload.items()]


def _dispatch(args, out, err) -> int:
    # This order fixes which error a bad invocation reports first.
    system = _system_of(args, err) if "type" in args else None
    word = parse_word(system, args.word) if "word" in args else None
    shape = _shape_of(args, err) if "p" in args else None
    command = args.command
    code = EXIT_OK

    if command == "roots":
        payload = {
            "type": str(system.ctype),
            "positive_roots": [list(x) for x in system.positive_roots],
            "warnings": list(system.warnings),
        }
        lines = [",".join(map(str, x)) for x in system.positive_roots]

    elif command == "betas":
        betas = word.betas
        payload = {"word": format_word(word), "betas": [list(b) for b in betas]}
        lines = [",".join(map(str, b)) for b in betas]

    elif command == "positive":
        payload = {"positive": is_positive(parse_diagram(word, args.diagram))}
        lines = [json.dumps(payload["positive"])]

    elif command == "zeta":
        u = zeta(parse_diagram(word, args.diagram))
        canonical = format_word(reduced_word(system, u))
        payload = {"word": canonical, "length": u.length,
                   "matrix": [list(row) for row in u.matrix]}
        lines = [canonical]

    elif command == "diagram-for":
        found = diagram_for(word, parse_word(system, args.element).element)
        if found is None:
            payload, lines = {"diagram": None}, ["absent"]
        else:
            payload, lines = {"diagram": list(found.positions)}, [format_diagram(found)]

    elif command == "enumerate":
        # Only the output the format prints is built: on D7 w0 the other
        # one would be 322,560 more lists or strings.
        diagrams = enumerate_positive(word)
        payload = lines = None
        if args.format == "json":
            payload = {"count": len(diagrams), "diagrams": [list(d.positions) for d in diagrams]}
        else:
            lines = [f"count {len(diagrams)}", *map(format_diagram, diagrams)]

    elif command == "interval":
        # One orbit point per element: no matrix is built.
        _guard_sweep(word)
        payload = {"interval_count": len(_interval_points(word))}
        lines = [str(payload["interval_count"])]

    elif command == "verify":
        report = verify_word(word, include_order_stats=args.order_stats)
        code = EXIT_OK if report.all_ok() else EXIT_VERIFY_FAILED
        if args.output is not None:
            try:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(report.to_json(include_elapsed=args.elapsed))
            except OSError as exc:
                raise UsageError(f"cannot write report: {exc}") from None
            return code
        payload = report.to_dict(include_elapsed=args.elapsed)
        lines = _key_value_lines(payload)

    elif command == "census":
        result = longest_word_census(system.ctype)
        # A witness that is None is left out, as VerificationReport.to_dict does.
        counts = {key: value for key, value in asdict(result).items() if value is not None}
        counts["ok"] = result.ok
        payload = {"type": str(system.ctype), **counts}
        lines = _key_value_lines(counts)
        code = EXIT_OK if result.ok else EXIT_VERIFY_FAILED

    elif command == "qm":
        qm_word = format_word(quantum_matrices_word(shape))
        payload = {"p": shape.p, "m": shape.m, "rank": shape.n,
                   "degenerate": shape.degenerate, "word": qm_word}
        lines = [qm_word]

    elif command == "le":
        payload = {"le": is_le_diagram(parse_grid(shape, args.grid))}
        lines = [json.dumps(payload["le"])]

    elif command == "pipedream":
        filling = parse_grid(shape, args.grid)
        perm = pipe_dream_permutation(filling)
        payload = {"permutation": list(perm)}
        lines = [",".join(map(str, perm))]
        if args.render:
            payload["render"] = render_wiring(filling)
            lines.append(payload["render"].rstrip("\n"))

    else:  # pragma: no cover
        raise AssertionError(f"unhandled command {command}")

    _emit(out, args, payload, lines)
    return code


def run(argv) -> CommandResult:
    """Run one invocation; never raises, never touches the real stdio."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                args = _build_parser().parse_args(list(argv))
            except SystemExit as stop:  # --help and friends
                return CommandResult(int(stop.code or 0), out.getvalue(), err.getvalue())
            code = _dispatch(args, out, err)
    except WeylDiagError as exc:
        err.write(f"error: {exc}\n")
        code = next((c for kind, c in _ERROR_EXITS if isinstance(exc, kind)), EXIT_USAGE)
    return CommandResult(code, out.getvalue(), err.getvalue())


def main() -> None:
    result = run(sys.argv[1:])
    sys.stdout.write(result.stdout)
    sys.stderr.write(result.stderr)
    sys.exit(result.exit_code)


if __name__ == "__main__":
    main()
