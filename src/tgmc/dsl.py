"""The `.tg` modeling language: parser, name checker, and pretty-printer.

A model file is a sequence of `;`-terminated statements (`#` starts a line
comment)::

    model NAME;
    param a, b, ...;
    resilience <cmp> && <cmp> && ...;        # comparisons over linear forms
    size <linear form>;                      # number of processes
    status Z0, Z1, ...;                      # finite status set, in order
    init Z0, ...;                            # initial statuses (subset)
    local x, ...;                            # per-process naturals
    shared y, ...;                           # single-copy naturals
    step { from LOC to LOC : <op>; ... }     # acyclic control-flow edges
    unfair NAME: <formula>;                  # named unfairness formula
    spec NAME [unless UNFAIRNAME]: <formula>;

Operations: ``when <guard>`` with atoms ``sv == Z`` / ``<linear form> <= var``
combined by ``&&`` and ``!(...)`` (a conjunction is flat, however its
parentheses group it); ``set sv = Z``; ``inc var``; and
``pick var where <atom> && ...`` whose atoms are ``a <= b [± terms]`` with
``eps`` the placeholder for the chosen value (every pick must bound ``eps``
from above).

Formulas: literals ``all(sv == Z)``, ``some(sv != Z)``, ``some(x [± terms] < y)``
(and ``!`` on a literal), the operators ``F``, ``G``, infix ``U``, ``&&``,
``||``, and the sugar ``lit -> formula`` (desugared to ``!lit || formula``).
The statement and operation keywords, the formula keywords (``all``,
``some``, ``sv``, ``eps``, ``F``, ``G``, ``U``, ``R``), ``true`` and ``false``
are reserved.  ``model``, ``size``, ``resilience`` and ``step`` appear once.

The parser checks every name where it is written (see ``parse_model``);
``cfa.build_cfa`` checks only the step block's graph.  Parentheses and
prefix operators nest at most ``MAX_NESTING`` deep, and a formula's tree is
at most as high, so no recursive pass meets a deeper tree.

``tokenize`` reads the text with one token table, ``_TOKEN``: a regular
expression whose alternatives are a newline, blanks and comments, ASCII
integers, names, the symbols (longest first) and any other character, which
is a diagnostic.  A token's line and column come from its offset, so the end
of file is after the last character, a comment's included.  One reader,
``_Parser.separated``, reads all seven ``item (sep item)*`` lists: the names
of ``param``, ``status``, ``local``, ``shared`` and ``init``, resilience
conjuncts, guard conjunctions, pick conditions, and a formula's ``||``,
``&&`` and ``U`` chains.

Parsing collects as many diagnostics as it can (with line:column positions)
before failing; it never aborts the process.  After an error the parser
skips to the end of the statement, or of the edge inside a step block; a
``}`` skipped there before the next statement closes the block, and a block
that lost an edge gets no diagnostics about its graph's shape.
"""

from __future__ import annotations

import re
from functools import partial, reduce
from typing import NamedTuple, NoReturn

from .cfa import (EPS, Cfa, Edge, Guard, GuardAnd, GuardExpr, GuardNot, Inc, Op,
                  Pick, PickAtom, PickCond, SetStatus, SvEq, ThresholdLe,
                  build_cfa, op_names)
from .core import (COMPARISON_OPS, Comparison, LinearForm, ModelError, ParamEnv,
                   ResilienceCondition, normalize_coeffs, parse_int, value)
from .ltl import (And, Formula, Future, Globally, LessProp, Literal, Or,
                  StatusProp, Until, children, disjoin, formula_aps, render_formula)

# Declaring keyword -> the role of the names it declares.
_DECLARATIONS = {"param": "parameter", "status": "status",
                 "local": "variable", "shared": "variable"}
_SINGLETONS = ("model", "size", "resilience", "step")
_STATEMENTS = {*_DECLARATIONS, *_SINGLETONS, "init", "unfair", "spec"}
RESERVED_NAMES = _STATEMENTS | {
    "from", "to", "when", "set", "inc", "pick", "where", "unless",
    "all", "some", "sv", "eps", "F", "G", "U", "R", "true", "false",
}

MAX_NESTING = 100   # the builtin models' formulas and guards nest 4 deep


@value
class Diagnostic(NamedTuple):
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.line}:{self.col}: {self.message}"


class ModelSyntaxError(ModelError):
    """Raised after parsing/validation with every collected diagnostic."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(d.render() for d in self.diagnostics))


@value
class SpecDef(NamedTuple):
    name: str
    formula: Formula
    unless: str | None = None


@value
class ModelDef(NamedTuple):
    name: str
    params: tuple[str, ...]
    resilience: ResilienceCondition
    size: LinearForm
    statuses: tuple[str, ...]
    initial_statuses: tuple[str, ...]
    locals: tuple[str, ...]
    shareds: tuple[str, ...]
    cfa: Cfa
    unfairness: tuple[tuple[str, Formula], ...]
    specs: tuple[SpecDef, ...]

    def spec(self, name: str) -> SpecDef:
        for spec in self.specs:
            if spec.name == name:
                return spec
        raise ModelError(f"model {self.name!r} has no spec {name!r} "
                         f"(available: {', '.join(s.name for s in self.specs)})")

    def unfairness_formula(self, name: str) -> Formula:
        for key, formula in self.unfairness:
            if key == name:
                return formula
        raise ModelError(f"model {self.name!r} has no unfairness formula {name!r}")

    def spec_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.specs)


# ---------------------------------------------------------------------------
# Tokenizer.

@value
class Token(NamedTuple):
    kind: str   # "ident" | "int" | "sym" | "eof"
    text: str
    line: int
    col: int

# Longest first: the token table tries them in this order.
_SYMBOLS = ("&&", "||", "->", "<=", ">=", "==", "!=",
            "<", ">", "=", "!", "(", ")", "{", "}", ";", ":", ",", "+", "-", "*")

# The token table: the first alternative that matches at a position wins.
# A name is a run of word characters (``str.isalnum()`` or ``_``); a run
# that does not start with a letter or ``_`` is cut to its first character,
# which is unexpected.  A tab and a ``\r`` are one column each.
_TOKEN = re.compile("|".join([
    r"(?P<newline>\n)",
    r"(?P<blank>[ \t\r]+|#[^\n]*)",
    r"(?P<int>[0-9]+)",
    r"(?P<ident>\w+)",
    "(?P<sym>%s)" % "|".join(map(re.escape, _SYMBOLS)),
    r"(?P<other>.)",
]))


def tokenize(text: str) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    line, line_start, pos = 1, 0, 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        kind, start, pos = match.lastgroup, match.start(), match.end()
        col = start - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, pos
        elif kind == "ident" and not (text[start].isalpha() or text[start] == "_"):
            kind, pos = "other", start + 1
        if kind == "other":
            diagnostics.append(Diagnostic(line, col,
                                          f"unexpected character {text[start]!r}"))
        elif kind in ("int", "ident", "sym"):
            tokens.append(Token(kind, text[start:pos], line, col))
    tokens.append(Token("eof", "", line, pos - line_start + 1))
    return tokens, diagnostics


# ---------------------------------------------------------------------------
# Parser.

class _Recover(Exception):
    """Internal: unwind to the enclosing statement after a diagnostic."""


class _Parser:
    def __init__(self, tokens: list[Token], diagnostics: list[Diagnostic]):
        self.tokens = tokens
        self.pos = 0
        self.diagnostics = diagnostics
        self.depth = 0      # open parentheses and prefix operators

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.peek().text == text and self.peek().kind in ("sym", "ident")

    def take(self, text: str) -> bool:
        if self.at(text):
            self.advance()
            return True
        return False

    def expect(self, text: str) -> Token:
        if self.at(text):
            return self.advance()
        return self.fail(f"expected {text!r}, found {self._describe(self.peek())}")

    def expect_ident(self, role: str) -> str:
        tok = self.peek()
        if tok.kind == "ident":
            self.advance()
            return tok.text
        self.fail(f"expected {role}, found {self._describe(tok)}")

    @staticmethod
    def _describe(tok: Token) -> str:
        return "end of file" if tok.kind == "eof" else repr(tok.text)

    def fail(self, message: str, tok: Token | None = None) -> NoReturn:
        tok = tok or self.peek()
        self.diagnostics.append(Diagnostic(tok.line, tok.col, message))
        raise _Recover()

    def nest(self, parse):
        """``parse()`` inside the parenthesis or prefix operator just read."""
        if self.depth == MAX_NESTING:
            self.fail(f"nested more than {MAX_NESTING} levels deep",
                      self.tokens[self.pos - 1])
        self.depth += 1
        result = parse()
        self.depth -= 1
        return result

    def separated(self, sep: str, parse_item) -> list:
        """The items of ``item (sep item)*``, each read by ``parse_item()``."""
        items = [parse_item()]
        while self.take(sep):
            items.append(parse_item())
        return items

    def skip_statement(self) -> None:
        """Panic recovery: skip past the next ';' (or a closing '}')."""
        self.depth = depth = 0
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                return
            self.advance()
            if tok.text == "{":
                depth += 1
            elif tok.text == "}" and depth > 0:
                depth -= 1
            elif tok.text in (";", "}") and depth == 0:
                return

    # -- linear forms and comparisons --------------------------------------

    def parse_linear_form(self) -> LinearForm:
        coeffs: dict[str, int] = {}
        const = 0
        while True:
            sign = 1
            if self.take("-"):
                sign = -1
            else:
                self.take("+")
            tok = self.peek()
            if tok.kind == "int":
                self.advance()
                value = sign * int(tok.text)
                if self.take("*"):
                    name = self.expect_ident("parameter name")
                    coeffs[name] = coeffs.get(name, 0) + value
                else:
                    const += value
            elif tok.kind == "ident":
                self.advance()
                coeffs[tok.text] = coeffs.get(tok.text, 0) + sign
            else:
                self.fail(f"expected linear-form term, found {self._describe(tok)}")
            if not (self.at("+") or self.at("-")):
                break
        return LinearForm(normalize_coeffs(coeffs.items()), const)

    def parse_comparison(self) -> Comparison:
        lhs = self.parse_linear_form()
        tok = self.peek()
        if tok.text not in COMPARISON_OPS:
            self.fail(f"expected comparison operator, found {self._describe(tok)}")
        self.advance()
        rhs = self.parse_linear_form()
        return Comparison(lhs, tok.text, rhs)

    # -- guards and operations ----------------------------------------------

    def parse_guard(self) -> GuardExpr:
        """A guard; a parenthesised conjunction inside a conjunction is
        spliced into it, so no GuardAnd holds another."""
        items = [item for unary in self.separated("&&", self.parse_guard_unary)
                 for item in (unary.items if isinstance(unary, GuardAnd)
                              else (unary,))]
        return items[0] if len(items) == 1 else GuardAnd(tuple(items))

    def parse_guard_unary(self) -> GuardExpr:
        if self.take("!"):
            self.expect("(")
            inner = self.nest(self.parse_guard)
            self.expect(")")
            return GuardNot(inner)
        if self.take("("):
            inner = self.nest(self.parse_guard)
            self.expect(")")
            return inner
        if self.at("sv"):
            self.advance()
            tok = self.peek()
            if tok.text == "!=":
                self.fail("guards use '!(sv == Z)' rather than 'sv != Z'")
            self.expect("==")
            status = self.expect_ident("status name")
            return SvEq(status)
        bound = self.parse_linear_form()
        self.expect("<=")
        var = self.expect_ident("variable name")
        return ThresholdLe(bound, var)

    def parse_op(self) -> Op:
        if self.take("when"):
            return Guard(self.parse_guard())
        if self.take("set"):
            self.expect("sv")
            self.expect("=")
            return SetStatus(self.expect_ident("status name"))
        if self.take("inc"):
            return Inc(self.expect_ident("variable name"))
        if self.take("pick"):
            var = self.expect_ident("variable name")
            self.expect("where")
            atoms = self.separated("&&", self.parse_pick_atom)
            return Pick(var, PickCond(tuple(atoms)))
        self.fail(f"expected operation (when/set/inc/pick), "
                  f"found {self._describe(self.peek())}")

    def parse_offset(self) -> LinearForm:
        """An optional ``± terms`` after a variable; zero if absent."""
        if self.at("+") or self.at("-"):
            return self.parse_linear_form()
        return LinearForm()

    def parse_pick_atom(self) -> PickAtom:
        lhs = self.expect_ident(f"variable name or {EPS!r}")
        self.expect("<=")
        rhs = self.expect_ident(f"variable name or {EPS!r}")
        return PickAtom(lhs, rhs, self.parse_offset())

    # -- formulas ------------------------------------------------------------

    def parse_formula(self) -> Formula:
        start = self.peek()
        formula = self.parse_implies()
        level = [formula]
        for _ in range(MAX_NESTING):
            level = [child for f in level for child in children(f)]
        if level:
            self.fail(f"formula nested more than {MAX_NESTING} levels deep", start)
        return formula

    def parse_implies(self) -> Formula:
        premises = []
        while True:
            start = self.peek()
            lhs = self.parse_or()
            if not self.take("->"):
                return disjoin(*premises, lhs) if premises else lhs
            if not isinstance(lhs, Literal):
                self.fail("the premise of '->' must be a literal "
                          "(richer premises are not part of the language)", start)
            premises.append(Literal(lhs.ap, not lhs.negated))

    def parse_or(self) -> Formula:
        items = self.separated("||", self.parse_and)
        return items[0] if len(items) == 1 else Or(tuple(items))

    def parse_and(self) -> Formula:
        items = self.separated("&&", self.parse_until)
        return items[0] if len(items) == 1 else And(tuple(items))

    def parse_until(self) -> Formula:
        """``U`` associates to the left."""
        return reduce(Until, self.separated("U", self.parse_formula_unary))

    def parse_formula_unary(self) -> Formula:
        if self.take("F"):
            return Future(self.nest(self.parse_formula_unary))
        if self.take("G"):
            return Globally(self.nest(self.parse_formula_unary))
        if self.take("!"):
            start = self.peek()
            arg = self.nest(self.parse_formula_unary)
            if not isinstance(arg, Literal):
                self.fail("'!' applies to literals only; negation of compound "
                          "formulas is expressed by the dual operators", start)
            return Literal(arg.ap, not arg.negated)
        if self.take("("):
            inner = self.nest(self.parse_implies)
            self.expect(")")
            return inner
        return self.parse_formula_literal()

    def parse_formula_literal(self) -> Formula:
        tok = self.peek()
        if tok.text not in ("all", "some"):
            self.fail(f"expected formula, found {self._describe(tok)}")
        quant = tok.text
        self.advance()
        self.expect("(")
        if self.at("sv"):
            self.advance()
            op_tok = self.peek()
            if op_tok.text not in ("==", "!="):
                self.fail(f"expected '==' or '!=', found {self._describe(op_tok)}")
            self.advance()
            status = self.expect_ident("status name")
            self.expect(")")
            return Literal(StatusProp(quant, status, eq=(op_tok.text == "==")))
        if quant != "some":
            self.fail("comparisons between variables are existential: "
                      "use 'some(x [± offset] < y)'", tok)
        x = self.expect_ident("variable name")
        offset = self.parse_offset()
        self.expect("<")
        y = self.expect_ident("variable name")
        self.expect(")")
        return Literal(LessProp(x, offset, y))


# ---------------------------------------------------------------------------
# Statement-level parsing and name checking.

def parse_model(text: str) -> ModelDef:
    """Parse a model source into a validated ModelDef.

    Every name is checked where it is written: a declared name against the
    reserved words and the names declared before it, a used name, once all
    statements are read, against the table of declared names and roles.
    Raises ModelSyntaxError carrying every diagnostic found (syntax and
    semantic); diagnostics have 1-based line/column positions.
    """
    tokens, diagnostics = tokenize(text)
    parser = _Parser(tokens, diagnostics)

    name: str | None = None
    declared: dict[str, list[str]] = {keyword: [] for keyword in _DECLARATIONS}
    roles: dict[str, str] = {}              # parameter, status, variable names
    unfair_names: dict[str, str] = {}
    spec_names: dict[str, str] = {}
    # Deferred uses: (token, role, name, diagnostic if the name lacks the role).
    uses: list[tuple[Token, str, str, str]] = []
    resilience = ResilienceCondition()
    size: LinearForm | None = None
    initial_statuses: list[str] = []
    edges: list[Edge] = []
    step_tok: Token | None = None
    broken_edge = False         # the graph lacks an edge: its shape says nothing
    seen_singletons: set[str] = set()
    unfairness: list[tuple[str, Formula]] = []
    specs: list[SpecDef] = []

    def report(tok: Token, message: str) -> None:
        diagnostics.append(Diagnostic(tok.line, tok.col, message))

    def declare(tok: Token, role: str, table: dict[str, str]) -> str:
        if tok.text in RESERVED_NAMES:
            report(tok, f"{role} {tok.text!r} is a reserved word")
        if table.get(tok.text) == role:
            report(tok, f"duplicate {role} {tok.text!r}")
        elif tok.text in table:
            report(tok, f"name {tok.text!r} is declared in more than one role")
        table.setdefault(tok.text, role)
        return tok.text

    def declare_listed(keyword: str) -> None:
        """Read one name of a ``keyword`` list and declare it."""
        name_tok, role = parser.peek(), _DECLARATIONS[keyword]
        parser.expect_ident(f"{role} name")
        declared[keyword].append(declare(name_tok, role, roles))

    def record_initial(init_tok: Token) -> None:
        """Read one name of an ``init`` list, to be checked as a status."""
        status = parser.expect_ident("status name")
        initial_statuses.append(status)
        uses.append((init_tok, "status", status,
                     f"initial status {status!r} is not declared"))

    def use(tok: Token, pairs, prefix: str = "") -> None:
        uses.extend((tok, role, n, f"{prefix}unknown {role} {n!r}")
                    for role, n in pairs)

    def use_formula(tok: Token, formula: Formula) -> None:
        for ap in formula_aps(formula):
            if isinstance(ap, StatusProp):
                use(tok, [("status", ap.status)])
            else:
                use(tok, [("variable", ap.x), ("variable", ap.y)]
                    + [("parameter", p) for p in ap.offset.names()])

    def use_params(tok: Token, *forms: LinearForm) -> None:
        use(tok, [("parameter", p) for form in forms for p in form.names()])

    while parser.peek().kind != "eof":
        tok = parser.peek()
        try:
            if tok.kind == "ident" and tok.text in _SINGLETONS:
                if tok.text in seen_singletons:
                    report(tok, f"duplicate {tok.text!r} statement")
                seen_singletons.add(tok.text)
            if parser.take("model"):
                name = parser.expect_ident("model name")
                parser.expect(";")
            elif tok.kind == "ident" and tok.text in _DECLARATIONS:
                parser.advance()
                parser.separated(",", partial(declare_listed, tok.text))
                parser.expect(";")
            elif parser.take("resilience"):
                conjuncts = parser.separated("&&", parser.parse_comparison)
                resilience = ResilienceCondition(tuple(conjuncts))
                use_params(tok, *(form for c in conjuncts for form in (c.lhs, c.rhs)))
                parser.expect(";")
            elif parser.take("size"):
                size = parser.parse_linear_form()
                use_params(tok, size)
                parser.expect(";")
            elif parser.take("init"):
                parser.separated(",", partial(record_initial, tok))
                parser.expect(";")
            elif parser.take("step"):
                step_tok = step_tok or tok
                parser.expect("{")
                while not parser.take("}"):
                    edge_tok = parser.peek()
                    if edge_tok.kind == "eof":
                        parser.fail("unterminated step block")
                    try:
                        parser.expect("from")
                        src = parser.expect_ident("location name")
                        parser.expect("to")
                        dst = parser.expect_ident("location name")
                        parser.expect(":")
                        op = parser.parse_op()
                        parser.expect(";")
                    except _Recover:
                        broken_edge = True
                        parser.skip_statement()
                        # A '}' skipped before the next statement closes the block.
                        if parser.tokens[parser.pos - 1].text == "}" and (
                                parser.peek().kind == "eof"
                                or parser.peek().text in _STATEMENTS):
                            break
                        continue
                    edges.append(Edge(src, op, dst))
                    if isinstance(op, Pick) and not op.cond.has_upper_bound():
                        report(edge_tok, f"edge {src}->{dst}: unbounded "
                               f"nondeterministic choice (no atom of the form "
                               f"'{EPS} <= variable + offset')")
                    use(edge_tok, op_names(op), f"edge {src}->{dst}: ")
            elif parser.take("unfair"):
                name_tok = parser.peek()
                parser.expect_ident("unfairness name")
                # Declared before its formula is read, so a broken formula
                # does not also make every spec that names it a misuse.
                unfair_name = declare(name_tok, "unfairness name", unfair_names)
                parser.expect(":")
                formula = parser.parse_formula()
                parser.expect(";")
                unfairness.append((unfair_name, formula))
                use_formula(tok, formula)
            elif parser.take("spec"):
                name_tok = parser.peek()
                parser.expect_ident("spec name")
                unless = None
                if parser.take("unless"):
                    unless = parser.expect_ident("unfairness name")
                parser.expect(":")
                formula = parser.parse_formula()
                parser.expect(";")
                specs.append(SpecDef(declare(name_tok, "spec name", spec_names),
                                     formula, unless))
                use_formula(tok, formula)
                if unless is not None:
                    uses.append((tok, "unfairness name", unless,
                                 f"spec {name_tok.text!r} references undeclared "
                                 f"unfairness {unless!r}"))
            else:
                parser.fail(f"unknown statement {parser._describe(tok)}")
        except _Recover:
            parser.skip_statement()

    if name is None:
        diagnostics.append(Diagnostic(1, 1, "missing 'model NAME;' statement"))
        name = "unnamed"
    if size is None:
        diagnostics.append(Diagnostic(1, 1, "missing 'size <linear form>;' statement"))
        size = LinearForm()
    if not declared["status"]:
        diagnostics.append(Diagnostic(1, 1, "missing 'status ...;' statement"))
    if not initial_statuses:
        diagnostics.append(Diagnostic(1, 1, "missing 'init ...;' statement"))
    cfa: Cfa | None = None
    if not edges and not broken_edge:
        diagnostics.append(Diagnostic(1, 1, "missing or empty 'step { ... }' block"))
    elif not broken_edge:
        cfa, problems = build_cfa(edges)
        for problem in problems:
            report(step_tok, problem)
    for tok, role, used, message in uses:
        if role not in (roles.get(used), unfair_names.get(used)):
            report(tok, message)

    if diagnostics:
        raise ModelSyntaxError(diagnostics)

    return ModelDef(name=name, params=tuple(declared["param"]),
                    resilience=resilience, size=size,
                    statuses=tuple(declared["status"]),
                    initial_statuses=tuple(initial_statuses),
                    locals=tuple(declared["local"]),
                    shareds=tuple(declared["shared"]), cfa=cfa,
                    unfairness=tuple(unfairness), specs=tuple(specs))


def parse_params_binding(text: str, model: ModelDef) -> ParamEnv:
    """Parse a binding like ``"n=7,t=2,f=2"`` against the model's parameters."""
    env: ParamEnv = {}
    if text.strip():
        for part in text.split(","):
            if "=" not in part:
                raise ModelError(f"malformed parameter binding {part.strip()!r} "
                                 "(expected name=value)")
            key, _, value = part.partition("=")
            key = key.strip()
            value = value.strip()
            if key in env:
                raise ModelError(f"duplicate parameter {key!r}")
            if key not in model.params:
                raise ModelError(f"unknown parameter {key!r} "
                                 f"(model has: {', '.join(model.params)})")
            number = parse_int(value, f"non-numeric value {value!r} "
                                      f"for parameter {key!r}")
            if number < 0:
                raise ModelError(f"parameter {key!r} must be a natural, got {number}")
            env[key] = number
    missing = [p for p in model.params if p not in env]
    if missing:
        raise ModelError(f"missing parameter(s): {', '.join(missing)}")
    return env


def format_model(model: ModelDef) -> str:
    """Canonical source text; parse_model(format_model(m)) == m.  Formulas
    keep their grouping: render_formula parenthesises every operand that
    binds no tighter than its operator."""
    lines: list[str] = [f"model {model.name};", ""]
    if model.params:
        lines.append(f"param {', '.join(model.params)};")
    if model.resilience.conjuncts:
        lines.append(f"resilience {model.resilience.render()};")
    lines.append(f"size {model.size.render()};")
    lines.append("")
    lines.append(f"status {', '.join(model.statuses)};")
    lines.append(f"init {', '.join(model.initial_statuses)};")
    if model.locals:
        lines.append(f"local {', '.join(model.locals)};")
    if model.shareds:
        lines.append(f"shared {', '.join(model.shareds)};")
    lines.append("")
    lines.append("step {")
    for e in model.cfa.edges:
        lines.append(f"  from {e.src} to {e.dst}: {e.op.render()};")
    lines.append("}")
    if model.unfairness:
        lines.append("")
        for unfair_name, formula in model.unfairness:
            lines.append(f"unfair {unfair_name}: {render_formula(formula)};")
    if model.specs:
        lines.append("")
        for spec in model.specs:
            clause = f" unless {spec.unless}" if spec.unless else ""
            lines.append(f"spec {spec.name}{clause}: {render_formula(spec.formula)};")
    return "\n".join(lines) + "\n"
