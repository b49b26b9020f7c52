"""Command line front end with stable text formats and exit codes.

Exit codes: 0 success or verified, 1 verification failure, 2 usage error
or unwritable --output, 3 precondition error (non-reduced word,
out-of-range index, invalid rank), 4 sweep size cap exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from dataclasses import dataclass

from .errors import DomainError, NotReducedError, SizeCapError, UsageError, WeylDiagError
from .roots import CartanType, RootSystem, build_root_system
from .words import Word, format_word, reduced_word
from .diagrams import Diagram, diagram_for, format_diagram, zeta
from .grid import (
    GridShape,
    is_le_diagram,
    parse_grid,
    pipe_dream_permutation,
    quantum_matrices_word,
    render_wiring,
)
from .verify import bruhat_interval, enumerate_positive, longest_word_census, verify_word

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_SIZE_CAP = 4


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


def _parse_ints(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    out = []
    for token in text.split(","):
        token = token.strip()
        try:
            out.append(int(token))
        except ValueError:
            raise UsageError(f"bad token {token!r}, expected an integer") from None
    return tuple(out)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


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

    def add(name: str, help_text: str, *, system=False, word=False):
        cmd = sub.add_parser(name, help=help_text)
        if system:
            cmd.add_argument("--type", required=True, choices=list("ABCDEFG"),
                             help="Cartan family")
            cmd.add_argument("--rank", required=True, type=int, help="rank n")
        if word:
            cmd.add_argument("--word", required=True,
                             help="reduced word, e.g. '1,2,1'")
        cmd.add_argument("--format", choices=["text", "json"], default="text")
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

    cmd = add("qm", "emit the grid word for a p x m grid")
    cmd.add_argument("--p", required=True, type=int, help="rows")
    cmd.add_argument("--m", required=True, type=int, help="columns")

    cmd = add("le", "test a grid filling for the Le property")
    cmd.add_argument("--p", required=True, type=int)
    cmd.add_argument("--m", required=True, type=int)
    cmd.add_argument("--grid", required=True, help="boxes, e.g. '1,2 2,2'")

    cmd = add("pipedream", "pipe-dream permutation of a grid filling")
    cmd.add_argument("--p", required=True, type=int)
    cmd.add_argument("--m", required=True, type=int)
    cmd.add_argument("--grid", required=True)
    cmd.add_argument("--render", action="store_true", help="print the wiring drawing")

    return parser


def _emit(out, args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        out.write(json.dumps(payload, indent=2) + "\n")
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


def _dispatch(args, out, err) -> int:
    command = args.command

    if command == "roots":
        system = _system_of(args, err)
        payload = {
            "type": str(system.ctype),
            "positive_roots": [list(x) for x in system.positive_roots],
            "warnings": list(system.warnings),
        }
        _emit(out, args, payload, [",".join(map(str, x)) for x in system.positive_roots])
        return EXIT_OK

    if command == "betas":
        system = _system_of(args, err)
        word = parse_word(system, args.word)
        betas = word.betas
        payload = {"word": format_word(word), "betas": [list(b) for b in betas]}
        _emit(out, args, payload, [",".join(map(str, b)) for b in betas])
        return EXIT_OK

    if command == "positive":
        system = _system_of(args, err)
        word = parse_word(system, args.word)
        from .diagrams import is_positive

        verdict = is_positive(parse_diagram(word, args.diagram))
        _emit(out, args, {"positive": verdict}, ["true" if verdict else "false"])
        return EXIT_OK

    if command == "zeta":
        system = _system_of(args, err)
        word = parse_word(system, args.word)
        u = zeta(parse_diagram(word, args.diagram))
        canonical = reduced_word(system, u)
        payload = {
            "word": format_word(canonical),
            "length": u.length,
            "matrix": [list(row) for row in u.matrix],
        }
        _emit(out, args, payload, [format_word(canonical)])
        return EXIT_OK

    if command == "diagram-for":
        system = _system_of(args, err)
        word = parse_word(system, args.word)
        u = parse_word(system, args.element).element
        found = diagram_for(word, u)
        if found is None:
            _emit(out, args, {"diagram": None}, ["absent"])
        else:
            _emit(out, args, {"diagram": list(found.positions)}, [format_diagram(found)])
        return EXIT_OK

    if command == "enumerate":
        system = _system_of(args, err)
        word = parse_word(system, args.word)
        diagrams = enumerate_positive(word)
        payload = {"count": len(diagrams), "diagrams": [list(d.positions) for d in diagrams]}
        _emit(out, args, payload,
              [f"count {len(diagrams)}"] + [format_diagram(d) for d in diagrams])
        return EXIT_OK

    if command == "interval":
        system = _system_of(args, err)
        word = parse_word(system, args.word)
        size = len(bruhat_interval(word))
        _emit(out, args, {"interval_count": size}, [str(size)])
        return EXIT_OK

    if command == "verify":
        system = _system_of(args, err)
        word = parse_word(system, args.word)
        report = verify_word(word, include_order_stats=args.order_stats)
        payload = report.to_dict(include_elapsed=args.elapsed)
        if args.output:
            try:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(report.to_json(include_elapsed=args.elapsed))
            except OSError as exc:
                raise UsageError(f"cannot write report: {exc}") from None
        else:
            lines = [f"{key} {json.dumps(value)}" for key, value in payload.items()]
            _emit(out, args, payload, lines)
        return EXIT_OK if report.all_ok() else EXIT_VERIFY_FAILED

    if command == "census":
        system = _system_of(args, err)
        result = longest_word_census(system.ctype)
        payload = {
            "type": str(system.ctype),
            "positive_root_count": result.positive_root_count,
            "positive_count": result.positive_count,
            "group_order": result.group_order,
            "ok": result.ok,
        }
        _emit(out, args, payload, [
            f"positive_root_count {result.positive_root_count}",
            f"positive_count {result.positive_count}",
            f"group_order {result.group_order}",
            f"ok {'true' if result.ok else 'false'}",
        ])
        return EXIT_OK if result.ok else EXIT_VERIFY_FAILED

    if command == "qm":
        shape = _shape_of(args, err)
        word = quantum_matrices_word(shape)
        payload = {
            "p": shape.p,
            "m": shape.m,
            "rank": shape.n,
            "degenerate": shape.degenerate,
            "word": format_word(word),
        }
        _emit(out, args, payload, [format_word(word)])
        return EXIT_OK

    if command == "le":
        shape = _shape_of(args, err)
        verdict = is_le_diagram(parse_grid(shape, args.grid))
        _emit(out, args, {"le": verdict}, ["true" if verdict else "false"])
        return EXIT_OK

    if command == "pipedream":
        shape = _shape_of(args, err)
        filling = parse_grid(shape, args.grid)
        perm = pipe_dream_permutation(filling)
        payload: dict = {"permutation": list(perm)}
        lines = [",".join(map(str, perm))]
        if args.render:
            drawing = render_wiring(filling)
            payload["render"] = drawing
            lines.append(drawing.rstrip("\n"))
        _emit(out, args, payload, lines)
        return EXIT_OK

    raise AssertionError(f"unhandled command {command}")  # pragma: no cover


def run(argv) -> CommandResult:
    """Run one invocation; never raises, never touches the real stdio."""
    out, err = io.StringIO(), io.StringIO()
    parser = _build_parser()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                args = parser.parse_args(list(argv))
            except SystemExit as stop:  # --help and friends
                return CommandResult(int(stop.code or 0), out.getvalue(), err.getvalue())
            code = _dispatch(args, out, err)
    except UsageError as exc:
        err.write(f"error: {exc}\n")
        code = EXIT_USAGE
    except (NotReducedError, DomainError) as exc:
        err.write(f"error: {exc}\n")
        code = EXIT_PRECONDITION
    except SizeCapError as exc:
        err.write(f"error: {exc}\n")
        code = EXIT_SIZE_CAP
    except WeylDiagError as exc:  # pragma: no cover - no other subclasses yet
        err.write(f"error: {exc}\n")
        code = EXIT_USAGE
    return CommandResult(code, out.getvalue(), err.getvalue())


def main() -> None:
    result = run(sys.argv[1:])
    sys.stdout.write(result.stdout)
    sys.stderr.write(result.stderr)
    sys.exit(result.exit_code)


if __name__ == "__main__":
    main()
