"""Modeling-language parser: tokens, diagnostics, round-trips, bindings."""

import random
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import linear_form
from tgmc.cfa import Guard, GuardAnd, GuardNot, Pick, SvEq, ThresholdLe
from tgmc.core import LinearForm, ModelError
from tgmc.dsl import (MAX_NESTING, ModelSyntaxError, check_binding,
                      format_model, parse_model, parse_params_binding, tokenize)
from tgmc.harness import BUILTIN_NAMES, load_builtin
from tgmc.ltl import (And, Future, Globally, LessProp, Literal, Or, StatusProp,
                      Until, render_formula)

MINIMAL = """
model tiny;
param n, t;
resilience n > t && t > 0;
size n;
status V0, V1, AC;
init V0, V1;
local rcvd;
shared nsnt;
step {
  from qI to q1 : pick rcvd where rcvd <= eps && eps <= nsnt;
  from q1 to q2 : when t + 1 <= rcvd;
  from q2 to qF : set sv = AC;
  from q1 to qF : when !(t + 1 <= rcvd);
}
unfair starving: F G some(rcvd < nsnt);
spec safe: all(sv != V1) -> G all(sv != AC);
spec live unless starving: G (all(sv == V1) -> F some(sv == AC));
"""


def test_tokenize_symbols_and_comments():
    tokens, diagnostics = tokenize("a <= b # trailing words\n&& ! ( ) -> 17")
    assert not diagnostics
    assert [t.text for t in tokens] == ["a", "<=", "b", "&&", "!", "(", ")", "->", "17", ""]
    assert [t.kind for t in tokens] == ["ident", "sym", "ident", "sym", "sym",
                                        "sym", "sym", "sym", "int", "eof"]
    assert tokens[3].line == 2 and tokens[3].col == 1


def test_tokenize_reports_bad_characters():
    for bad in ("@", "²"):                # only ASCII digits make numbers
        _, diagnostics = tokenize(f"a {bad} b")
        assert len(diagnostics) == 1
        assert f"unexpected character {bad!r}" in diagnostics[0].message


@pytest.mark.parametrize("text,tokens,diagnostics", [
    # Only a letter or '_' starts a name; a bad character is skipped alone.
    ("²abc", [("ident", "abc", 1, 2), ("eof", "", 1, 5)],
     [(1, 1, "unexpected character '²'")]),
    ("a²b", [("ident", "a²b", 1, 1), ("eof", "", 1, 4)], []),
    ("٣x", [("ident", "x", 1, 2), ("eof", "", 1, 3)],
     [(1, 1, "unexpected character '٣'")]),
    ("x٣", [("ident", "x٣", 1, 1), ("eof", "", 1, 3)], []),
    ("_a1", [("ident", "_a1", 1, 1), ("eof", "", 1, 4)], []),
    ("é", [("ident", "é", 1, 1), ("eof", "", 1, 2)], []),
    ("1a", [("int", "1", 1, 1), ("ident", "a", 1, 2), ("eof", "", 1, 3)], []),
    ("a\r\nb", [("ident", "a", 1, 1), ("ident", "b", 2, 1), ("eof", "", 2, 2)], []),
    ("a\tb @", [("ident", "a", 1, 1), ("ident", "b", 1, 3), ("eof", "", 1, 6)],
     [(1, 5, "unexpected character '@'")]),
    # The longest symbol at a position wins.
    ("<=>", [("sym", "<=", 1, 1), ("sym", ">", 1, 3), ("eof", "", 1, 4)], []),
    ("-->", [("sym", "-", 1, 1), ("sym", "->", 1, 2), ("eof", "", 1, 4)], []),
    # The end of file follows the last character, a comment's too.
    ("model m # c", [("ident", "model", 1, 1), ("ident", "m", 1, 7),
                     ("eof", "", 1, 12)], []),
    ("model m # c\n", [("ident", "model", 1, 1), ("ident", "m", 1, 7),
                       ("eof", "", 2, 1)], []),
])
def test_tokenize_edge_cases(text, tokens, diagnostics):
    got, problems = tokenize(text)
    assert [(t.kind, t.text, t.line, t.col) for t in got] == tokens
    assert [(d.line, d.col, d.message) for d in problems] == diagnostics


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_tokenize_accounts_for_every_character(text):
    """Tokens and diagnostics sit where their text is, in order; every other
    character is a blank, a newline or part of a ``#`` comment."""
    lines = text.split("\n")
    tokens, diagnostics = tokenize(text)
    covered = [set() for _ in lines]
    for tok in tokens[:-1]:
        start = tok.col - 1
        assert lines[tok.line - 1][start:start + len(tok.text)] == tok.text
        covered[tok.line - 1].update(range(start, start + len(tok.text)))
        if tok.kind == "int":
            assert tok.text.isascii() and tok.text.isdigit()
        elif tok.kind == "ident":
            assert tok.text[0].isalpha() or tok.text[0] == "_"
            assert all(ch.isalnum() or ch == "_" for ch in tok.text)
    positions = [(tok.line, tok.col) for tok in tokens]
    assert positions == sorted(set(positions))
    assert tokens[-1].kind == "eof"
    for diag in diagnostics:
        char = lines[diag.line - 1][diag.col - 1]
        assert diag.message == f"unexpected character {char!r}"
        covered[diag.line - 1].add(diag.col - 1)
    for line, done in zip(lines, covered):
        for col, char in enumerate(line):
            if col in done:
                continue
            if char == "#":
                assert not any(c > col for c in done)
                break
            assert char in " \t\r"


def test_parse_minimal_model():
    m = parse_model(MINIMAL)
    assert m.name == "tiny"
    assert m.params == ("n", "t")
    assert m.size == linear_form(n=1)
    assert m.statuses == ("V0", "V1", "AC")
    assert m.initial_statuses == ("V0", "V1")
    assert m.locals == ("rcvd",)
    assert m.shareds == ("nsnt",)
    assert len(m.cfa.edges) == 4
    assert m.cfa.initial == "qI" and m.cfa.final == "qF"
    assert isinstance(m.cfa.edges[0].op, Pick)
    assert m.cfa.edges[1].op == Guard(ThresholdLe(linear_form(1, t=1), "rcvd"))
    assert m.cfa.edges[3].op == Guard(GuardNot(ThresholdLe(linear_form(1, t=1), "rcvd")))
    assert [s.name for s in m.specs] == ["safe", "live"]
    assert m.spec("live").unless == "starving"
    assert m.spec("safe").unless is None
    with pytest.raises(ModelError):
        m.spec("other")
    with pytest.raises(ModelError):
        m.unfairness_formula("other")


def test_implication_desugars_to_flat_disjunction():
    m = parse_model(MINIMAL)
    safe = m.spec("safe").formula
    assert safe == Or((Literal(StatusProp("all", "V1", False), negated=True),
                       Globally(Literal(StatusProp("all", "AC", False)))))


def test_implication_premise_must_be_literal():
    bad = MINIMAL.replace("all(sv != V1) ->", "(all(sv != V1) && all(sv != AC)) ->")
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(bad)
    assert "premise" in str(err.value)


def test_compound_negation_rejected_in_formulas():
    bad = MINIMAL.replace("G all(sv != AC)", "!(G all(sv != AC))")
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(bad)
    assert "literal" in str(err.value)


def test_diagnostics_carry_positions_and_accumulate():
    bad = MINIMAL.replace("set sv = AC", "set sv = NOPE") \
                 .replace("t + 1 <= rcvd;", "t + 1 <= ghost;")
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(bad)
    messages = [d.render() for d in err.value.diagnostics]
    assert len(messages) >= 2
    assert all(":" in msg for msg in messages)
    assert any("NOPE" in msg for msg in messages)
    assert any("ghost" in msg for msg in messages)


def test_duplicate_and_cross_role_names_rejected():
    bad = MINIMAL.replace("local rcvd;", "local rcvd, rcvd;")
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(bad)
    assert "duplicate" in str(err.value)
    bad = MINIMAL.replace("local rcvd;", "local rcvd, n;")
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(bad)
    assert "more than one role" in str(err.value)


def test_reserved_names_rejected():
    bad = MINIMAL.replace("param n, t;", "param n, t, when;")
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(bad)
    assert "reserved" in str(err.value)


def test_unknown_names_in_spec_reported():
    bad = MINIMAL.replace("G all(sv != AC)", "G all(sv != MISSING)")
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(bad)
    assert "MISSING" in str(err.value)


def test_undeclared_unless_reported():
    bad = MINIMAL.replace("unless starving", "unless nothing")
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(bad)
    assert "nothing" in str(err.value)


def test_broken_unfair_formula_still_declares_its_name():
    # The spec that names `starving` in `unless` is not a second error.
    bad = MINIMAL.replace("F G some(rcvd < nsnt)", "F G all(rcvd < nsnt)")
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(bad)
    assert [d.render() for d in err.value.diagnostics] == [
        "16:22: comparisons between variables are existential: "
        "use 'some(x [± offset] < y)'"]


def test_unbounded_pick_rejected():
    bad = MINIMAL.replace("pick rcvd where rcvd <= eps && eps <= nsnt",
                          "pick rcvd where rcvd <= eps")
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(bad)
    assert "unbounded" in str(err.value)


def test_offset_spec_atom_shapes():
    text = MINIMAL.replace("F G some(rcvd < nsnt)", "F G some(rcvd - t < nsnt)")
    m = parse_model(text)
    unfair = m.unfairness_formula("starving")
    inner = unfair.arg.arg
    assert inner == Literal(LessProp("rcvd", linear_form(t=-1), "nsnt"))

    text = MINIMAL.replace("F G some(rcvd < nsnt)",
                           "F G some(rcvd - t + 2*n - 1 < nsnt)") \
                  .replace("eps <= nsnt;", "eps <= nsnt - 2*t + 1;")
    m = parse_model(text)
    assert m.unfairness_formula("starving").arg.arg.ap.offset == \
        linear_form(-1, n=2, t=-1)
    pick = m.cfa.edges[0].op
    assert [a.offset for a in pick.cond.atoms] == \
        [LinearForm(), linear_form(1, t=-2)]

    for old, new, where in (("F G some(rcvd < nsnt)", "F G some(rcvd - < nsnt)",
                             "16:34:"),
                            ("eps <= nsnt;", "eps <= nsnt + ;", "11:64:")):
        with pytest.raises(ModelSyntaxError) as err:
            parse_model(MINIMAL.replace(old, new))
        assert err.value.diagnostics[0].render().startswith(
            f"{where} expected linear-form term")


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtins_round_trip_through_formatter(name):
    model = load_builtin(name)
    assert parse_model(format_model(model)) == model


USER_APS = (StatusProp("all", "V1", True), StatusProp("some", "AC", False),
            LessProp("rcvd", linear_form(t=1), "nsnt"))


def random_user_formula(rng: random.Random, depth: int):
    """A formula the parser can produce: literals, F, G, U, and && / || of
    at least two items."""
    if depth == 0 or rng.random() < 0.3:
        return Literal(rng.choice(USER_APS), rng.random() < 0.3)
    kind = rng.randrange(5)
    if kind < 2:
        items = tuple(random_user_formula(rng, depth - 1)
                      for _ in range(rng.randrange(2, 4)))
        return (And, Or)[kind](items)
    if kind == 4:
        return Until(random_user_formula(rng, depth - 1),
                     random_user_formula(rng, depth - 1))
    return (Future, Globally)[kind - 2](random_user_formula(rng, depth - 1))


def test_formulas_round_trip_through_formatter():
    rng = random.Random("render-parse")
    # (all(sv == V1) || some(sv != AC)) || F some(sv != AC)
    v1, not_ac = Literal(USER_APS[0]), Literal(USER_APS[1])
    nested = Or((Or((v1, not_ac)), Future(not_ac)))
    for formula in [nested] + [random_user_formula(rng, 4) for _ in range(300)]:
        model = parse_model(MINIMAL + f"spec random: {render_formula(formula)};\n")
        assert model.spec("random").formula == formula
        assert parse_model(format_model(model)) == model


NEGATED_GUARD = "!(t + 1 <= rcvd)"
GUARD_ATOMS = ("sv == V0", "sv == AC", "t + 1 <= rcvd", "n - 2*t <= nsnt",
               "-1 + 3*t - n <= rcvd", "0 <= nsnt")


def random_guard_text(rng: random.Random, depth: int) -> str:
    """Guard source with ``!( )``, redundant parentheses and ``&&`` nested
    at random, so a conjunction may hold a parenthesised conjunction."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(GUARD_ATOMS)
    kind = rng.randrange(3)
    if kind == 2:
        return " && ".join(random_guard_text(rng, depth - 1)
                           for _ in range(rng.randrange(2, 4)))
    return ("!(", "(")[kind] + random_guard_text(rng, depth - 1) + ")"


def nested_conjunctions(guard) -> bool:
    if isinstance(guard, GuardNot):
        return nested_conjunctions(guard.item)
    if isinstance(guard, GuardAnd):
        return any(isinstance(item, GuardAnd) or nested_conjunctions(item)
                   for item in guard.items)
    return False


def test_guards_round_trip_through_formatter():
    rng = random.Random("guard-render-parse")
    found = "(sv == V1 && t + 1 <= rcvd) && sv == V1"
    model = parse_model(MINIMAL.replace(NEGATED_GUARD, found))
    assert model.cfa.edges[3].op == Guard(GuardAnd(
        (SvEq("V1"), ThresholdLe(linear_form(1, t=1), "rcvd"), SvEq("V1"))))
    for text in [found] + [random_guard_text(rng, 4) for _ in range(500)]:
        model = parse_model(MINIMAL.replace(NEGATED_GUARD, text))
        assert not nested_conjunctions(model.cfa.edges[3].op.expr), text
        assert parse_model(format_model(model)) == model, text


def test_builtin_structure():
    byz = load_builtin("byz")
    assert byz.params == ("n", "t", "f")
    assert byz.statuses == ("V0", "V1", "SE", "AC")
    assert byz.initial_statuses == ("V0", "V1")
    assert byz.size == linear_form(n=1, f=-1)
    assert len(byz.cfa.edges) == 14
    clean = load_builtin("clean")
    assert clean.params == ("n", "t")
    assert clean.size == linear_form(n=1)
    assert len(clean.cfa.edges) == 11
    symm = load_builtin("symm")
    assert symm.params == ("n", "t", "fp", "fs")
    assert symm.size == linear_form(n=1, fp=-1)
    omit = load_builtin("omit")
    assert omit.size == linear_form(n=1)
    for name in BUILTIN_NAMES:
        model = load_builtin(name)
        assert [s.name for s in model.specs] == ["unforg", "corr", "relay"]
        assert model.spec("unforg").unless is None
        assert model.spec("corr").unless is not None
        assert model.spec("relay").unless is not None


def test_parse_params_binding():
    model = load_builtin("byz")
    assert parse_params_binding("n=7,t=2,f=2", model) == {"n": 7, "t": 2, "f": 2}
    assert parse_params_binding(" n = 7 , t = 2 , f = 0 ", model) == \
        {"n": 7, "t": 2, "f": 0}
    for bad in ("n=7,t=2", "n=7,t=2,f=2,x=1", "n=7,t=2,f=-1", "n=7,t=2,f=two",
                "n=7,n=7,t=2,f=2", "7", "", "n=--7,t=2,f=2", "n=²,t=2,f=2"):
        with pytest.raises(ModelError):
            parse_params_binding(bad, model)


def test_check_binding_is_the_one_binding_rule():
    model = load_builtin("byz")
    env = {"n": 7, "t": 2, "f": 2}
    assert check_binding(model, env) is env
    for bad, message in [
            ({}, "missing parameter(s): n, t, f"),
            ({**env, "x": 1}, "unknown parameter 'x' (model has: n, t, f)"),
            ({**env, "f": -1}, "parameter 'f' must be a natural, got -1"),
            ({**env, "t": True}, "parameter 't' must be an integer, got True"),
            ({**env, "n": "7"}, "parameter 'n' must be an integer, got '7'"),
            ({**env, "n": 7.0}, "parameter 'n' must be an integer, got 7.0")]:
        with pytest.raises(ModelError) as err:
            check_binding(model, bad)
        assert str(err.value) == message
    # The text reader applies the same rule and keeps only the text rules.
    with pytest.raises(ModelError) as err:
        parse_params_binding("n=7,t=2,f=-1", model)
    assert str(err.value) == "parameter 'f' must be a natural, got -1"


LAST_EDGE = "  from q1 to qF : when !(t + 1 <= rcvd);\n"


@pytest.mark.parametrize("extra,expected", [
    ("from q0 to q1 : set sv = V0;",
     ["step block must have exactly one entry location (found ['qI', 'q0'])"]),
    ("from q1 to q9 : set sv = V0;",
     ["step block must have exactly one exit location (found ['qF', 'q9'])"]),
    ("from q2 to q1 : set sv = V0;",
     ["automaton has a cycle: locations 'q1', 'q2', 'qF' cannot be ordered"]),
    ("from qa to qb : set sv = V0; from qb to qa : set sv = V0;",
     ["automaton has a cycle: locations 'qa', 'qb' cannot be ordered"]),
    ("from q2 to qF : set sv = AC;", ["duplicate edge q2->qF"]),
    ("from q0 to q1 : set sv = NOPE;",
     ["step block must have exactly one entry location (found ['qI', 'q0'])",
      "15:1: edge q0->q1: unknown status 'NOPE'"]),
])
def test_malformed_step_blocks_rejected(extra, expected):
    """Shape problems point at the step block, name problems at their edge."""
    bad = MINIMAL.replace(LAST_EDGE, LAST_EDGE + extra + "\n")
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(bad)
    assert [d.render() for d in err.value.diagnostics] == \
        [message if message[0].isdigit() else f"10:1: {message}"
         for message in expected]


STEP_BLOCK = MINIMAL[MINIMAL.index("step {"):MINIMAL.index("unfair")]


@pytest.mark.parametrize("old,new,expected", [
    ("spec safe:", "spec safe", ["17:11: expected ':', found 'all'"]),
    ("init V0, V1;", "init V0, ;", ["7:10: expected status name, found ';'"]),
    ("t > 0;", "t;", ["4:22: expected comparison operator, found ';'"]),
    ("when !(t + 1 <= rcvd)", "when (t + 1 <= rcvd && sv != V1)",
     ["14:45: guards use '!(sv == Z)' rather than 'sv != Z'"]),
    ("when !(t + 1 <= rcvd)", "frob nsnt",
     ["14:19: expected operation (when/set/inc/pick), found 'frob'"]),
    ("spec safe: all(sv != V1) -> G all(sv != AC)", "spec safe: ",
     ["17:12: expected formula, found ';'"]),
    ("all(sv != V1) ->", "all(sv < V1) ->",
     ["17:19: expected '==' or '!=', found '<'"]),
    ("G all(sv != AC)", "G all(rcvd < nsnt)",
     ["17:31: comparisons between variables are existential: "
      "use 'some(x [± offset] < y)'"]),
    (MINIMAL[MINIMAL.index("}\nunfair"):], "", ["15:1: unterminated step block"]),
    ("size n;", "size n;\nfrob { a; b; } c;", ["6:1: unknown statement 'frob'"]),
    ("model tiny;", "", ["1:1: missing 'model NAME;' statement"]),
    ("size n;", "", ["1:1: missing 'size <linear form>;' statement"]),
    ("status V0, V1, AC;", "",
     ["1:1: missing 'status ...;' statement",
      "7:1: initial status 'V0' is not declared",
      "7:1: initial status 'V1' is not declared",
      "13:3: edge q2->qF: unknown status 'AC'",
      "17:1: unknown status 'V1'", "17:1: unknown status 'AC'",
      "18:1: unknown status 'V1'", "18:1: unknown status 'AC'"]),
    ("init V0, V1;", "", ["1:1: missing 'init ...;' statement"]),
    (STEP_BLOCK, "step { }\n", ["1:1: missing or empty 'step { ... }' block"]),
    # The names read before a broken list stay declared or recorded.
    ("status V0, V1, AC;", "status V0, V1, AC, 3;",
     ["6:20: expected status name, found '3'"]),
    ("init V0, V1;", "init V0, V1,;", ["7:13: expected status name, found ';'"]),
    ("param n, t;", "param n, t 5;", ["3:12: expected ';', found '5'"]),
    # The end of file is after the last character, a comment's too.
    ("== AC));\n", "== AC));\nspec end: G all(sv != AC) # c",
     ["19:30: expected ';', found end of file"]),
    ("== AC));\n", "== AC));\nspec end: G all(sv != AC) # c\n",
     ["20:1: expected ';', found end of file"]),
])
def test_parser_diagnostics(old, new, expected):
    """One malformed input per parser message, pinned with the whole list
    of diagnostics it gives."""
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(MINIMAL.replace(old, new))
    assert [d.render() for d in err.value.diagnostics] == expected


BYZ_SOURCE = (resources.files("tgmc") / "models" / "byz.tg").read_text(
    encoding="utf-8")


@pytest.mark.parametrize("old,new,expected", [
    # The broken edge is the block's last: its '}' still ends the block.
    ("set sv = SE;\n}", "set sv = SE\n}", "30:1: expected ';', found '}'"),
    # A dropped edge leaves a graph whose shape says nothing.
    ("from q2 to q3 : inc nsnt;", "from q2 to q3 : frob nsnt;",
     "18:19: expected operation (when/set/inc/pick), found 'frob'"),
])
def test_broken_edge_is_one_diagnostic(old, new, expected):
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(BYZ_SOURCE.replace(old, new))
    assert [d.render() for d in err.value.diagnostics] == [expected]


def test_names_are_checked_where_they_are_written():
    bad = (MINIMAL.replace("status V0, V1, AC;", "status V0, V1, AC, V1;")
                  .replace("init V0, V1;", "init V0, C;")
                  .replace("size n;", "size n - k;")
                  .replace("when t + 1 <= rcvd;", "when t + 1 <= ghost;")
                  .replace("when !(t + 1 <= rcvd)", "when !(sv == ZZ)")
                  .replace("eps <= nsnt;", "eps <= eps;"))
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(bad)
    assert [d.render() for d in err.value.diagnostics] == [
        "6:20: duplicate status 'V1'",     # once: no "more than one role"
        "11:3: edge qI->q1: unbounded nondeterministic choice "
        "(no atom of the form 'eps <= variable + offset')",
        "5:1: unknown parameter 'k'",
        "7:1: initial status 'C' is not declared",
        "12:3: edge q1->q2: unknown variable 'ghost'",
        "14:3: edge q1->qF: unknown status 'ZZ'",
    ]


@pytest.mark.parametrize("keyword,repeat", [
    ("model", "model other;"),
    ("size", "size t;"),
    ("resilience", "resilience t > 0;"),
    ("step", "step { from qI to qF : set sv = AC; }"),
])
def test_repeated_singleton_statements_rejected(keyword, repeat):
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(MINIMAL + repeat + "\n")
    assert [d.render() for d in err.value.diagnostics] == \
        [f"19:1: duplicate {keyword!r} statement"]


def test_guard_only_over_declared_names():
    bad = MINIMAL.replace("when t + 1 <= rcvd", "when t + 1 <= other")
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(bad)
    assert "other" in str(err.value)


def nest(shape, depth):
    """MINIMAL with a formula or guard of ``shape`` nested ``depth`` deep."""
    if shape == "parentheses":
        spec = "(" * depth + "all(sv == AC)" + ")" * depth
    elif shape == "until chain":
        spec = " U ".join(["all(sv == AC)"] * depth)
    else:
        return MINIMAL.replace(NEGATED_GUARD, "!(" * depth + "t + 1 <= rcvd"
                               + ")" * depth)
    return MINIMAL + f"spec deep: {spec};\n"


@pytest.mark.parametrize("shape,position", [
    ("parentheses", f"19:{12 + MAX_NESTING}"),     # the first one too many
    ("until chain", "19:12"),                      # where the formula starts
    ("guard negations", f"14:{25 + 2 * MAX_NESTING}"),
])
def test_deep_nesting_is_a_diagnostic(shape, position):
    """Nesting far past the bound is one diagnostic at its line:col, not a
    RecursionError in the parser or in a later pass over the tree."""
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(nest(shape, 1500))
    assert [d.render() for d in err.value.diagnostics] == [
        f"{position}: {'formula ' if shape == 'until chain' else ''}"
        f"nested more than {MAX_NESTING} levels deep"]
    with pytest.raises(ModelSyntaxError):
        parse_model(nest(shape, MAX_NESTING + 1))
    model = parse_model(nest(shape, MAX_NESTING))
    assert parse_model(format_model(model)) == model


def test_long_flat_formulas_parse():
    """Chains that nest no deeper as they grow are not bounded: ``->``, ``&&``
    and ``||`` give one flat disjunction or conjunction."""
    atom = "all(sv == AC)"
    model = parse_model(MINIMAL + f"spec imp: {' -> '.join([atom] * 1500)};\n"
                        f"spec con: {' && '.join([atom] * 1500)};\n")
    implied = model.spec("imp").formula
    assert isinstance(implied, Or) and len(implied.items) == 1500
    assert implied.items[0] == Literal(StatusProp("all", "AC", True), negated=True)
    assert len(model.spec("con").formula.items) == 1500
