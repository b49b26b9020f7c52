"""The benchmark's workloads: seeded inputs, timed calls and their checks.

A builder takes the seed and returns the ops of one pass plus the Cartan
types it uses. An op's ``run`` is the timed call into weyldiag. It looks the
library functions up at call time (``wd.verify_word``, ``cli.run``), so the
traced run can swap in its wrappers. An op's ``check`` takes the output and
returns an error message or None. The checks compare against references the
library does not compute: hard-coded group orders and Le-diagram counts, and
this module's own Cartan-matrix arithmetic (products, root sequences, the
ascent rule, reducedness, subword products). Where a check compares two
library paths (the pipe dream against zeta', the CLI against the library),
the two share no code below the public functions.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Any, Callable

import weyldiag as wd


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]
    items: int = 1


# |W| from the classical formulas: (n+1)! for A_n, 2^n n! for B_n and C_n,
# 2^(n-1) n! for D_n, 12 for G2.
GROUP_ORDER = {
    "G2": 12, "A3": 24, "B3": 48, "C3": 48, "A4": 120,
    "D4": 192, "B4": 384, "C4": 384, "A5": 720,
}

# Le-diagrams of a p x m rectangle: the poly-Bernoulli number B_p^(-m).
LE_DIAGRAMS = {(3, 3): 230, (2, 5): 454}


def num_positive_roots(family: str, rank: int) -> int:
    if family == "A":
        return rank * (rank + 1) // 2
    if family in "BC":
        return rank * rank
    if family == "D":
        return rank * (rank - 1)
    return {"E6": 36, "E7": 63, "E8": 120, "F4": 24, "G2": 6}[f"{family}{rank}"]


# -- the benchmark's own Weyl arithmetic ---------------------------------------
# Matrices are stored by rows, row j holding the coefficients of w(alpha_j),
# as in the library; the code below shares nothing with it but the Cartan
# matrix.


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _times_simple(m: list[list[int]], i0: int, cartan) -> list[list[int]]:
    """m . s_(i0+1): row j loses a[i0][j] times row i0."""
    pivot = m[i0]
    return [
        [v - c * p for v, p in zip(row, pivot)] if (c := cartan[i0][j]) else row
        for j, row in enumerate(m)
    ]


def product(cartan, letters) -> tuple[tuple[int, ...], ...]:
    m = _identity(len(cartan))
    for i in letters:
        m = _times_simple(m, i - 1, cartan)
    return tuple(map(tuple, m))


def random_reduced(cartan, length: int | None, rng: random.Random) -> tuple[int, ...]:
    """Random ascent walk: a reduced word of ``length`` letters, or of w0."""
    m = _identity(len(cartan))
    letters: list[int] = []
    while length is None or len(letters) < length:
        ascents = [i0 for i0, row in enumerate(m) if sum(row) > 0]
        if not ascents:
            break
        i0 = rng.choice(ascents)
        letters.append(i0 + 1)
        m = _times_simple(m, i0, cartan)
    return tuple(letters)


def root_sequence(cartan, letters) -> list[tuple[int, ...]]:
    m = _identity(len(cartan))
    out = []
    for i in letters:
        out.append(tuple(m[i - 1]))
        m = _times_simple(m, i - 1, cartan)
    return out


def is_reduced(cartan, letters) -> bool:
    """Each letter must be a right ascent of the product before it."""
    m = _identity(len(cartan))
    for i in letters:
        if sum(m[i - 1]) <= 0:
            return False
        m = _times_simple(m, i - 1, cartan)
    return True


def is_w0(matrix) -> bool:
    """w0 is the one element sending every simple root to a negative root."""
    return all(sum(row) < 0 for row in matrix)


def positive_by_ascents(cartan, letters, positions) -> bool:
    """Marsh-Rietsch positivity: the right-to-left trace ascends everywhere."""
    inside = set(positions)
    m = _identity(len(cartan))
    for pos in range(len(letters), 0, -1):
        i0 = letters[pos - 1] - 1
        if sum(m[i0]) < 0:
            return False
        if pos in inside:
            m = _times_simple(m, i0, cartan)
    return True


def subword_products(cartan, letters) -> set:
    reachable = {product(cartan, ())}
    for i in letters:
        reachable |= {
            tuple(map(tuple, _times_simple([list(r) for r in m], i - 1, cartan)))
            for m in reachable
        }
    return reachable


def grid_letters(p: int, m: int) -> tuple[int, ...]:
    """The m-run word (p+c-1, ..., c for c = 1..m) of a p x m grid."""
    return tuple(x for c in range(1, m + 1) for x in range(p + c - 1, c - 1, -1))


def _subset(t: int, rng: random.Random, density: float) -> tuple[int, ...]:
    return tuple(k for k in range(1, t + 1) if rng.random() < density)


class _Systems:
    """Root systems a builder uses, so the traced run can rebuild them fresh."""

    def __init__(self):
        self.by_name: dict[str, wd.RootSystem] = {}

    def get(self, family: str, rank: int) -> wd.RootSystem:
        key = f"{family}{rank}"
        if key not in self.by_name:
            self.by_name[key] = wd.root_system(family, rank)
        return self.by_name[key]

    @property
    def ctypes(self) -> list[tuple[str, int]]:
        return [(s.ctype.family, s.ctype.rank) for s in self.by_name.values()]


# -- verify_sweep ------------------------------------------------------------

# (family, rank, random w0 words per pass). Three words of each cheap type
# put the op median inside the B3/C3 group, where the seed moves it least.
SWEEP_TYPES = (("D", 4, 1), ("A", 4, 3), ("B", 3, 3), ("C", 3, 3), ("G", 2, 3))
SWEEP_GRIDS = ((3, 3), (2, 5))


def _verify_op(kind, system, letters, expected: int, grid: bool) -> Op:
    t = len(letters)

    def run():
        return wd.verify_word(wd.Word(system, letters))

    def check(report):
        if not report.all_ok():
            return f"checks failed: {report.to_dict()}"
        if report.total_diagrams != 1 << t:
            return f"total_diagrams {report.total_diagrams} != 2^{t}"
        if not report.positive_count == report.interval_count == expected:
            return (f"positive {report.positive_count}, interval "
                    f"{report.interval_count}, expected {expected}")
        if (report.le_equivalence_ok is not None) != grid:
            return f"Le check presence {report.le_equivalence_ok!r} for grid={grid}"
        return None

    return Op(kind, run, check, items=1 << t)


def build_verify_sweep(seed: int):
    rng = random.Random(seed)
    systems = _Systems()
    ops = []
    for family, rank, count in SWEEP_TYPES:
        system = systems.get(family, rank)
        name = f"{family}{rank}"
        for _ in range(count):
            letters = random_reduced(system.cartan, None, rng)
            ops.append(_verify_op(name, system, letters, GROUP_ORDER[name], grid=False))
    for p, m in SWEEP_GRIDS:
        system = systems.get("A", p + m - 1)
        ops.append(_verify_op(f"grid{p}x{m}", system, grid_letters(p, m),
                              LE_DIAGRAMS[(p, m)], grid=True))
    return ops, systems.ctypes


# -- census_O ----------------------------------------------------------------

CENSUS_TYPES = (
    ("G", 2), ("A", 3), ("B", 3), ("C", 3), ("A", 4),
    ("D", 4), ("A", 5), ("B", 4), ("C", 4),
)


def census_words(t: int) -> int:
    """Random w0 words enumerated per type: several for the cheap types, so
    the op median has many samples; the t >= 15 types cost ~1.5 s a word."""
    return 4 if t <= 10 else 2 if t <= 12 else 1


def _census_op(ctype) -> Op:
    name = str(ctype)
    order = GROUP_ORDER[name]

    def check(census):
        if not census.positive_count == census.group_order == order:
            return (f"census {census.positive_count} vs group order "
                    f"{census.group_order}, expected {order}")
        if census.positive_root_count != num_positive_roots(ctype.family, ctype.rank):
            return f"positive_root_count {census.positive_root_count}"
        return None

    return Op(f"census {name}",
              lambda: wd.longest_word_census(wd.CartanType(ctype.family, ctype.rank)),
              check, items=order)


def _enumerate_op(system, letters) -> Op:
    name = str(system.ctype)
    order = GROUP_ORDER[name]

    def check(positives):
        if len({d.positions for d in positives}) != len(positives) or len(positives) != order:
            return f"enumerate_positive gave {len(positives)} diagrams, expected {order}"
        return None

    return Op(f"enumerate {name}", lambda: wd.enumerate_positive(wd.Word(system, letters)),
              check, items=order)


def build_census(seed: int):
    rng = random.Random(seed)
    systems = _Systems()
    ops = []
    for family, rank in CENSUS_TYPES:
        system = systems.get(family, rank)
        ops.append(_census_op(system.ctype))
        for _ in range(census_words(num_positive_roots(family, rank))):
            ops.append(_enumerate_op(system, random_reduced(system.cartan, None, rng)))
    return ops, systems.ctypes


# -- queries -----------------------------------------------------------------

# (family, rank, word length). The composition is fixed; the seed draws the
# letters, diagrams and grids, so the cost of a pass hardly depends on it.
MID_BAND = (
    ("E", 6, 16), ("E", 7, 16), ("E", 8, 16), ("F", 4, 16), ("G", 2, 6),
    ("A", 8, 12), ("A", 12, 14), ("A", 16, 16),
    ("B", 8, 12), ("B", 12, 14), ("B", 16, 16),
    ("C", 8, 12), ("C", 12, 14), ("C", 16, 16),
    ("D", 8, 12), ("D", 12, 14), ("D", 16, 16),
)
LARGE_BAND = (("A", 32, 40), ("B", 32, 40), ("C", 32, 40), ("D", 32, 40))
# subword_products makes one inversion count per reachable element, so the
# oracle words stay at t <= 10 over small root systems.
ORACLE_TYPES = {"E6", "E7", "F4", "G2", "A8", "B8", "C8", "D8"}
ORACLE_T = 10
GRID_SHAPES = ((2, 3), (3, 3), (3, 4), (2, 5), (4, 4), (3, 5))

# Queries of each kind in one pass (1100 in all, ~13% CLI).
QUERY_MIX = {
    "root_sequence": 260,
    "is_positive": 80,
    "zeta_reduced_word": 120,
    "round_trip": 120,
    "extend_to_w0": 50,
    "bruhat_leq": 130,
    "pipe_dream": 100,
    "render_trace": 100,
    "cli": 140,
}
# Every LARGE_EVERY-th zeta_reduced_word query uses a rank-32 word: each
# costs two inversion counts over up to 1024 positive roots (~0.1 s).
LARGE_EVERY = 16


@dataclass(frozen=True)
class _Entry:
    system: wd.RootSystem
    letters: tuple[int, ...]

    @property
    def cartan(self):
        return self.system.cartan

    @property
    def t(self) -> int:
        return len(self.letters)

    @property
    def name(self) -> str:
        return str(self.system.ctype)


def _q_root_sequence(e: _Entry, rng) -> Op:
    def check(out):
        return None if list(out) == root_sequence(e.cartan, e.letters) else "root sequence differs"

    return Op("root_sequence", lambda: wd.root_sequence(wd.Word(e.system, e.letters)), check)


def _q_is_positive(e: _Entry, rng) -> Op:
    positions = _subset(e.t, rng, rng.choice((0.2, 0.5, 0.8)))

    def check(out):
        expected = positive_by_ascents(e.cartan, e.letters, positions)
        return None if out is expected else f"is_positive {out} on {e.name} {positions}"

    return Op("is_positive",
              lambda: wd.is_positive(wd.Diagram(wd.Word(e.system, e.letters), positions)),
              check)


def _q_zeta_reduced_word(e: _Entry, rng) -> Op:
    positions = _subset(e.t, rng, 0.5)

    def run():
        u = wd.zeta(wd.Diagram(wd.Word(e.system, e.letters), positions))
        return u, wd.reduced_word(e.system, u)

    def check(out):
        u, word = out
        if u.matrix != product(e.cartan, [e.letters[p - 1] for p in positions]):
            return f"zeta differs on {e.name} {positions}"
        if not is_reduced(e.cartan, word.letters) or len(word.letters) != u.length:
            return f"reduced_word {word.letters} not reduced of length {u.length}"
        if product(e.cartan, word.letters) != u.matrix:
            return "reduced_word product differs from zeta"
        return None

    return Op("zeta_reduced_word", run, check)


def _q_round_trip(e: _Entry, rng) -> Op:
    positions = _subset(e.t, rng, 0.5)
    # Obstruction pairs (j, m) with m in the diagram, drawn as fractions
    # so the same pairs are tested on every pass.
    picks = [(rng.random(), rng.random()) for _ in range(3)]

    def pairs(members):
        chosen = [(members[int(a * len(members))], b) for a, b in picks] if members else []
        return [(1 + int(b * (m - 1)), m) for m, b in chosen if m > 1]

    def run():
        word = wd.Word(e.system, e.letters)
        u = wd.zeta(wd.Diagram(word, positions))
        back = wd.diagram_for(word, u)
        again = wd.zeta(back)
        found = [wd.positivity_obstruction(back, j, m).violated
                 for j, m in pairs(back.positions)]
        return u, back, again, found

    def check(out):
        u, back, again, found = out
        if again != u:
            return f"zeta(diagram_for(zeta(d))) != zeta(d) on {e.name} {positions}"
        if product(e.cartan, [e.letters[p - 1] for p in back.positions]) != u.matrix:
            return "diagram_for result has the wrong product"
        if not positive_by_ascents(e.cartan, e.letters, back.positions):
            return f"diagram_for gave a non-positive diagram {back.positions}"
        if any(found):
            return f"obstruction violated on the positive diagram {back.positions}"
        return None

    return Op("round_trip", run, check)


def _q_extend_to_w0(e: _Entry, rng) -> Op:
    def check(word):
        letters = word.letters
        if letters[: e.t] != e.letters:
            return "extend_to_w0 changed the prefix"
        if len(letters) != num_positive_roots(e.system.ctype.family, e.system.rank):
            return f"extend_to_w0 length {len(letters)} on {e.name}"
        if not is_reduced(e.cartan, letters) or not is_w0(product(e.cartan, letters)):
            return f"extend_to_w0 did not give a reduced word of w0 on {e.name}"
        return None

    return Op("extend_to_w0", lambda: wd.extend_to_w0(wd.Word(e.system, e.letters)), check)


def _q_bruhat_leq(e: _Entry, rng, reachable: dict) -> Op:
    if rng.random() < 0.5:  # a subword product: always below
        u_letters = tuple(e.letters[p - 1] for p in _subset(e.t, rng, 0.5))
    else:  # any element of about the same length
        u_letters = random_reduced(e.cartan, e.t, rng)

    def check(out):
        if e.letters not in reachable:
            reachable[e.letters] = subword_products(e.cartan, e.letters)
        expected = product(e.cartan, u_letters) in reachable[e.letters]
        return None if out is expected else f"bruhat_leq_oracle {out} on {e.name} {u_letters}"

    return Op("bruhat_leq",
              lambda: wd.bruhat_leq_oracle(wd.Word(e.system, e.letters),
                                           wd.element_of_word(e.system, u_letters)),
              check)


def _random_grid(rng):
    p, m = rng.choice(GRID_SHAPES)
    shape = wd.GridShape(p, m)
    boxes = frozenset((r, c) for r in range(1, p + 1) for c in range(1, m + 1)
                      if rng.random() < 0.5)
    return shape, boxes


def _q_pipe_dream(rng) -> Op:
    shape, boxes = _random_grid(rng)

    def check(out):
        grid = wd.GridDiagram(shape, boxes)
        expected = wd.one_line(shape.system(), wd.zeta_prime(wd.linearize(grid)))
        return None if out == expected else f"pipe dream {out} != zeta' {expected}"

    return Op("pipe_dream",
              lambda: wd.pipe_dream_permutation(wd.GridDiagram(shape, boxes)), check)


def _q_render_trace(rng) -> Op:
    shape, boxes = _random_grid(rng)

    def check(out):
        expected = wd.pipe_dream_permutation(wd.GridDiagram(shape, boxes))
        return None if out == expected else f"traced wiring {out} != pipe dream {expected}"

    return Op("render_trace",
              lambda: wd.trace_rendered_wiring(wd.render_wiring(wd.GridDiagram(shape, boxes))),
              check)


def _fmt(letters) -> str:
    return ",".join(map(str, letters))


def _cli_case(case: str, e: _Entry, small: _Entry, e6_w0, rng) -> Op:
    """One cli.run call and the library result its JSON must equal."""
    from weyldiag import cli

    system_args = ["--type", e.system.ctype.family, "--rank", str(e.system.rank),
                   "--word", _fmt(e.letters)]
    positions = _subset(e.t, rng, 0.5)
    shape, boxes = _random_grid(rng)
    grid_args = ["--p", str(shape.p), "--m", str(shape.m),
                 "--grid", " ".join(f"{r},{c}" for r, c in sorted(boxes))]
    exit_code = 0
    if case == "betas":
        argv = ["betas", *system_args]

        def expected():
            word = wd.Word(e.system, e.letters)
            return {"word": _fmt(e.letters), "betas": [list(b) for b in wd.root_sequence(word)]}
    elif case == "zeta":
        argv = ["zeta", *system_args, "--diagram", _fmt(positions)]

        def expected():
            u = wd.zeta(wd.Diagram(wd.Word(e.system, e.letters), positions))
            return {"word": _fmt(wd.reduced_word(e.system, u).letters),
                    "length": u.length, "matrix": [list(r) for r in u.matrix]}
    elif case == "positive":
        argv = ["positive", *system_args, "--diagram", _fmt(positions)]

        def expected():
            return {"positive": wd.is_positive(wd.Diagram(wd.Word(e.system, e.letters), positions))}
    elif case == "diagram_for":
        element = [e.letters[p - 1] for p in positions]
        argv = ["diagram-for", *system_args, "--element", _fmt(element)]

        def expected():
            word = wd.Word(e.system, e.letters)
            found = wd.diagram_for(word, wd.element_of_word(e.system, element))
            return {"diagram": list(found.positions)}
    elif case == "pipedream":
        argv = ["pipedream", *grid_args, "--render"]

        def expected():
            grid = wd.GridDiagram(shape, boxes)
            return {"permutation": list(wd.pipe_dream_permutation(grid)),
                    "render": wd.render_wiring(grid)}
    elif case == "le":
        argv = ["le", *grid_args]

        def expected():
            return {"le": wd.is_le_diagram(wd.GridDiagram(shape, boxes))}
    elif case == "verify":
        argv = ["verify", "--type", small.system.ctype.family, "--rank",
                str(small.system.rank), "--word", _fmt(small.letters)]

        def expected():
            return wd.verify_word(wd.Word(small.system, small.letters)).to_dict()
    elif case == "census":
        argv = ["census", "--type", small.system.ctype.family, "--rank", str(small.system.rank)]
        order = GROUP_ORDER[small.name]

        def expected():
            return {"type": small.name,
                    "positive_root_count": num_positive_roots(small.system.ctype.family,
                                                              small.system.rank),
                    "positive_count": order, "group_order": order, "ok": True}
    elif case == "non_reduced":
        i = e.letters[0]
        argv = ["betas", "--type", e.system.ctype.family, "--rank", str(e.system.rank),
                "--word", f"{i},{i}"]
        exit_code, expected = 3, None
    elif case == "bad_position":
        argv = ["positive", *system_args, "--diagram", str(e.t + 1)]
        exit_code, expected = 3, None
    elif case == "malformed":
        argv = ["zeta", *system_args, "--diagram", "1,x"]
        exit_code, expected = 2, None
    elif case == "over_cap":
        argv = ["verify", "--type", "E", "--rank", "6", "--word", _fmt(e6_w0)]
        exit_code, expected = 4, None
    else:  # CLI_CASES and this chain must agree
        raise ValueError(case)
    argv = [*argv, "--format", "json"]

    def check(res):
        if res.exit_code != exit_code:
            return f"cli {case} exit {res.exit_code}, expected {exit_code}: {res.stderr.strip()}"
        if expected is None:
            if res.stdout or not res.stderr.startswith("error:"):
                return f"cli {case} error exit printed {res.stdout!r} / {res.stderr!r}"
            return None
        got = json.loads(res.stdout)
        want = expected()
        return None if got == want else f"cli {case} printed {got}, library gives {want}"

    return Op("cli", lambda: cli.run(argv), check)


CLI_CASES = ("betas", "zeta", "positive", "diagram_for", "pipedream", "le", "verify",
             "census", "non_reduced", "bad_position", "malformed", "over_cap")


def build_queries(seed: int):
    rng = random.Random(seed)
    systems = _Systems()

    def entry(family, rank, t):
        system = systems.get(family, rank)
        return _Entry(system, random_reduced(system.cartan, t, rng))

    mid = [entry(*spec) for spec in MID_BAND]
    large = [entry(*spec) for spec in LARGE_BAND]
    oracle = [_Entry(e.system, e.letters[:ORACLE_T]) for e in mid if e.name in ORACLE_TYPES]
    small = [entry("A", 3, None), entry("G", 2, None)]
    e6_w0 = random_reduced(systems.get("E", 6).cartan, None, rng)
    reachable: dict = {}

    def kind_ops(kind, count):
        for k in range(count):
            if kind == "root_sequence":
                yield _q_root_sequence((mid + large)[k % (len(mid) + len(large))], rng)
            elif kind == "zeta_reduced_word":
                big = k % LARGE_EVERY == LARGE_EVERY - 1
                yield _q_zeta_reduced_word(
                    large[k // LARGE_EVERY % len(large)] if big else mid[k % len(mid)], rng)
            elif kind == "is_positive":
                yield _q_is_positive(mid[k % len(mid)], rng)
            elif kind == "round_trip":
                yield _q_round_trip(mid[k % len(mid)], rng)
            elif kind == "extend_to_w0":
                yield _q_extend_to_w0(mid[k % len(mid)], rng)
            elif kind == "bruhat_leq":
                yield _q_bruhat_leq(oracle[k % len(oracle)], rng, reachable)
            elif kind == "pipe_dream":
                yield _q_pipe_dream(rng)
            elif kind == "render_trace":
                yield _q_render_trace(rng)
            else:
                yield _cli_case(CLI_CASES[k % len(CLI_CASES)], mid[k % len(mid)],
                                small[k % len(small)], e6_w0, rng)

    ops = [op for kind, count in QUERY_MIX.items() for op in kind_ops(kind, count)]
    rng.shuffle(ops)
    for shape in GRID_SHAPES:
        systems.get("A", sum(shape) - 1)
    return ops, systems.ctypes


BUILDERS = {
    "verify_sweep": build_verify_sweep,
    "census_O": build_census,
    "queries": build_queries,
}


def probe_calls():
    """One small call per traced function, over A3 and a 2x2 grid.

    The traced run times these only for a function its workload never
    calls, so that every per-call figure is measured rather than left at 0.
    """
    from weyldiag import cli

    a3 = wd.root_system("A", 3)
    letters = (1, 2, 1, 3, 2, 1)
    u = wd.element_of_word(a3, (2, 3))
    shape = wd.GridShape(2, 2)
    grid = wd.GridDiagram(shape, frozenset({(1, 2), (2, 2)}))

    def word():
        return wd.Word(a3, letters)

    return [
        lambda: wd.element_of_word(a3, letters),
        lambda: wd.compose(a3, u, u),
        lambda: wd.invert(u),
        lambda: wd.root_sequence(word()),
        lambda: wd.reduced_word(a3, u),
        lambda: wd.extend_to_w0(wd.Word(a3, (1, 2))),
        lambda: wd.is_positive_by_lengths(wd.Diagram(word(), (1, 3))),
        lambda: wd.is_positive(wd.Diagram(word(), (1, 3))),
        lambda: wd.positivity_obstruction(wd.Diagram(word(), (1, 3)), 1, 3),
        lambda: wd.diagram_for(word(), u),
        lambda: wd.zeta(wd.Diagram(word(), (2, 3))),
        lambda: wd.subword_products(word()),
        lambda: wd.is_le_diagram(grid),
        lambda: wd.pipe_dream_permutation(grid),
        lambda: wd.trace_rendered_wiring(wd.render_wiring(grid)),
        lambda: wd.verify_word(word()),
        lambda: wd.enumerate_positive(word()),
        lambda: wd.group_elements(a3),
        lambda: wd.longest_word_census(wd.CartanType("A", 3)),
        lambda: cli.run(["betas", "--type", "A", "--rank", "3", "--word", "1,2,1"]),
    ]
