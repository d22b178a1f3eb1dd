"""Law DSL: tokenizing, parsing, formatting, evaluation, scanning, and the
registry's law templates as the documented DSL transliterations.

Each template is checked against the independent oracle in
``tests/test_laws.py::TestRegistryAgainstOracle``; here the registry's
byte-lane scan of each equation law is checked against a serial sweep of the
definition-direct evaluator, which must find the same first witness.
"""

from itertools import product

import pytest

from idealtop import dsl, laws
from idealtop import operators as ops


class TestParsing:
    def test_round_trip_canonical_text(self):
        text = "sstar(union(A,B)) == union(sstar(A),sstar(B))"
        law = dsl.parse_law(text)
        assert dsl.format_law(law) == text
        assert law.relation == "=="
        assert law.free_vars == ("A", "B")

    def test_whitespace_is_free(self):
        a = dsl.parse_law(" star( union(A ,B) )==  union( star(A), star(B) ) ")
        b = dsl.parse_law("star(union(A,B)) == union(star(A),star(B))")
        assert a == b

    def test_free_vars_in_first_occurrence_order(self):
        law = dsl.parse_law("union(B,A) <= inter(A,C)")
        assert law.free_vars == ("B", "A", "C")

    def test_constants_and_compl(self):
        law = dsl.parse_law("compl(A) == diff(X,A)")
        assert law.lhs == dsl.Expr("compl", (dsl.Expr("A"),))
        assert law.rhs == dsl.Expr("diff", (dsl.Expr("X"), dsl.Expr("A")))
        assert dsl.parse_expr("empty") == dsl.Expr("empty")
        assert dsl.parse_expr("X") == dsl.Expr("X")

    def test_colon_names_are_single_tokens(self):
        expr = dsl.parse_expr("clstar:sstar(A)")
        assert expr == dsl.Expr("clstar:sstar", (dsl.Expr("A"),))

    def test_nested_calls(self):
        expr = dsl.parse_expr("psixis(inter(cl(A),int(B)))")
        assert dsl.format_expr(expr) == "psixis(inter(cl(A),int(B)))"

    @pytest.mark.parametrize(
        "text,exc,offset",
        [
            ("union(A B)", dsl.DslSyntaxError, 8),
            ("union(A,B", dsl.DslSyntaxError, 9),
            ("foo(A) == A", dsl.UnknownOperatorError, 0),
            ("X == Y(A)", dsl.UnknownOperatorError, 5),
            ("union(A) == A", dsl.ArityError, 0),
            ("compl(A,B) == A", dsl.ArityError, 0),
            ("A == B == C", dsl.DslSyntaxError, 7),
            ("A", dsl.DslSyntaxError, 1),
            ("xyz == A", dsl.DslSyntaxError, 0),
            ("a == A", dsl.DslSyntaxError, 0),
            ("", dsl.DslSyntaxError, 0),
            ("star() == empty", dsl.DslSyntaxError, 5),
            ("union(,A) == A", dsl.DslSyntaxError, 6),
            ("A ?= B", dsl.DslSyntaxError, 2),
        ],
    )
    def test_errors_carry_offsets(self, text, exc, offset):
        with pytest.raises(exc) as info:
            dsl.parse_law(text)
        assert info.value.offset == offset
        assert f"(offset {offset})" in str(info.value)

    @pytest.mark.parametrize(
        "kind,text,exc,message,offset",
        [
            ("expr", "union(A)", dsl.ArityError, "union takes 2 arguments, got 1", 0),
            ("expr", "compl(A,B)", dsl.ArityError, "compl takes 1 argument, got 2", 0),
            ("expr", "star(A,B)", dsl.ArityError, "star takes 1 argument, got 2", 0),
            # an unknown operator is reported before its arity
            ("expr", "zzz(A)", dsl.UnknownOperatorError, "unknown operator 'zzz'", 0),
            ("expr", "A(B)", dsl.UnknownOperatorError, "unknown operator 'A'", 0),
            ("law", "zzz(A,B) == A", dsl.UnknownOperatorError, "unknown operator 'zzz'", 0),
            ("expr", "union", dsl.DslSyntaxError,
             "'union' is not a variable (single uppercase letter), 'empty' or 'X'", 0),
            ("expr", "a", dsl.DslSyntaxError,
             "'a' is not a variable (single uppercase letter), 'empty' or 'X'", 0),
            ("expr", "star()", dsl.DslSyntaxError, "expected an expression", 5),
            ("expr", "star(A", dsl.DslSyntaxError, "expected ',' or ')'", 6),
            ("law", "A == B C", dsl.DslSyntaxError, "trailing input after law", 7),
            ("expr", "A B", dsl.DslSyntaxError, "trailing input after expression", 2),
            ("law", "1A == A", dsl.DslSyntaxError, "unexpected character '1'", 0),
            ("law", "star(union(A,)) == A", dsl.DslSyntaxError, "expected an expression", 13),
        ],
    )
    def test_error_class_message_and_offset(self, kind, text, exc, message, offset):
        parse = dsl.parse_law if kind == "law" else dsl.parse_expr
        with pytest.raises(dsl.DslError) as info:
            parse(text)
        assert type(info.value) is exc
        assert str(info.value) == f"{message} (offset {offset})"
        assert info.value.offset == offset

    def test_conditional_round_trip(self):
        text = "inter(A,B) <= psi(inter(A,B)) if A <= psi(A), B <= psi(B)"
        law = dsl.parse_law(text)
        assert dsl.format_law(law) == text
        assert (law.lhs, law.relation) == (dsl.parse_expr("inter(A,B)"), "<=")
        assert law.hypotheses == (dsl.parse_law("A <= psi(A)"), dsl.parse_law("B <= psi(B)"))
        assert dsl.parse_law(" inter( A,B )<=psi(inter(A,B))if A<=psi(A) ,B<= psi(B)") == law
        assert dsl.parse_law("A == B").hypotheses == ()

    def test_free_vars_read_the_conclusion_first(self):
        assert dsl.parse_law("B <= X if C <= A").free_vars == ("B", "C", "A")
        assert dsl.parse_law("empty <= X if A == B").free_vars == ("A", "B")

    @pytest.mark.parametrize(
        "text,message,offset",
        [
            ("A <= B if", "expected an expression", 9),
            ("A <= B if A <= B,", "expected an expression", 17),
            ("A <= B if A <= B if B <= A", "trailing input after law", 17),
            ("A <= B if A", "expected '==' or '<='", 11),
            ("A <= B, B <= A", "trailing input after law", 6),
        ],
    )
    def test_conditional_syntax_errors(self, text, message, offset):
        with pytest.raises(dsl.DslSyntaxError) as info:
            dsl.parse_law(text)
        assert str(info.value) == f"{message} (offset {offset})"
        assert info.value.offset == offset

    def test_nesting_is_bounded_at_the_first_call_past_the_bound(self, space_a):
        bound = dsl.MAX_NESTING
        deep = dsl.parse_law("star(" * bound + "A" + ")" * bound + " == A")
        assert dsl.scan_law(space_a, deep)[0] in ("holds", "violated")
        message = f"calls nest deeper than {bound} levels (offset {{}})"
        for depth in (bound + 1, 10_000):
            with pytest.raises(dsl.DslSyntaxError) as info:
                dsl.parse_expr("star(" * depth + "A" + ")" * depth)
            assert str(info.value) == message.format(5 * bound)
        # every call counts, in any argument and in a hypothesis
        past = "union(A," + "compl(" * bound + "A" + ")" * bound + ")"
        last = 6 * (bound - 1)  # the start of the last compl, after "union(A,"
        for text, offset in ((past + " == A", 8 + last), ("A <= B if A <= " + past, 23 + last)):
            with pytest.raises(dsl.DslSyntaxError) as info:
                dsl.parse_law(text)
            assert (str(info.value), info.value.offset) == (message.format(offset), offset)

    def test_x_is_reserved_not_a_variable(self):
        law = dsl.parse_law("X == union(A,compl(A))")
        assert law.free_vars == ("A",)


class TestEvaluation:
    def test_operator_application(self, space_a):
        expr = dsl.parse_expr("xis(union(A,B))")
        assert dsl.eval_expr(space_a, {"A": 6, "B": 5}, expr) == 15

    def test_set_algebra(self, space_a):
        env = {"A": 5, "B": 3}
        full = space_a.ground.universe
        for text, want in [
            ("union(A,B)", 7),
            ("inter(A,B)", 1),
            ("diff(A,B)", 4),
            ("compl(A)", full ^ 5),
            ("empty", 0),
            ("X", full),
            ("diff(X,A)", full ^ 5),
        ]:
            assert dsl.eval_expr(space_a, env, dsl.parse_expr(text)) == want

    def test_unbound_variable(self, space_a):
        with pytest.raises(dsl.UnboundVariableError):
            dsl.eval_expr(space_a, {}, dsl.parse_expr("star(A)"))

    def test_unknown_operator_guard(self, space_a):
        with pytest.raises(dsl.UnknownOperatorError):
            dsl.eval_expr(space_a, {"A": 1}, dsl.Expr("zzz", (dsl.Expr("A"),)))

    def test_eval_law_at_one_assignment(self, space_a):
        # the scan's first witnesses, re-evaluated at their own bindings
        additivity = dsl.parse_law("sstar(union(A,B)) == union(sstar(A),sstar(B))")
        assert dsl.eval_law(space_a, additivity, {"A": 1, "B": 2}) == (15, 3, True)
        assert dsl.eval_law(space_a, additivity, {"A": 0, "B": 0})[2] is False
        subset = dsl.parse_law("cl(A) <= A")
        assert dsl.eval_law(space_a, subset, {"A": 1}) == (13, 1, True)
        assert dsl.eval_law(space_a, subset, {"A": 0}) == (0, 0, False)

    def test_eval_law_with_hypotheses(self, space_a):
        # {w1,w3} and {w2,w3} are semi-open, their meet {w3} is not
        law = dsl.parse_law(
            "inter(A,B) <= cl(int(inter(A,B))) if A <= cl(int(A)), B <= cl(int(B))"
        )
        assert dsl.eval_law(space_a, law, {"A": 5, "B": 6}) == (4, 0, True)
        # the conclusion fails at ({w3}, {w3}) too, but {w3} is not semi-open
        assert dsl.eval_law(space_a, law, {"A": 4, "B": 4}) == (4, 0, False)
        assert dsl.eval_law(space_a, law, {"A": 5, "B": 4}) == (4, 0, False)
        # hypotheses hold and so does the conclusion
        assert dsl.eval_law(space_a, law, {"A": 1, "B": 3}) == (1, 13, False)


class TestScanning:
    def test_first_witness_and_count(self, space_a):
        law = dsl.parse_law("sstar(union(A,B)) == union(sstar(A),sstar(B))")
        outcome, witness, count = dsl.scan_law(space_a, law)
        assert outcome == "violated"
        assert witness.bindings == (("A", 1), ("B", 2))
        assert (witness.lhs, witness.rhs) == (15, 3)
        # assignments run in lexicographic order with A outermost
        assert count == 1 * 16 + 2 + 1

    def test_holds_scans_everything(self, space_a):
        law = dsl.parse_law("star(union(A,B)) == union(star(A),star(B))")
        assert dsl.scan_law(space_a, law) == ("holds", None, 256)

    def test_subset_relation(self, space_a):
        outcome, witness, count = dsl.scan_law(space_a, dsl.parse_law("cl(A) <= A"))
        assert (outcome, count) == ("violated", 2)
        assert witness.bindings == (("A", 1),)
        assert (witness.lhs, witness.rhs) == (13, 1)
        assert dsl.scan_law(space_a, dsl.parse_law("A <= clstar:star(A)"))[0] == "holds"

    def test_budget_stops_early(self, space_a):
        law = dsl.parse_law("sstar(union(A,B)) == union(sstar(A),sstar(B))")
        assert dsl.scan_law(space_a, law, budget=10) == ("budget", None, 10)
        # a budget of exactly the witness index still finds it
        assert dsl.scan_law(space_a, law, budget=19)[0] == "violated"
        assert dsl.scan_law(space_a, law, budget=18)[0] == "budget"

    def test_var_cap(self, space_a):
        # the cap guards law text where it enters; the scan takes a law whole
        law = dsl.parse_law("union(union(A,B),union(C,D)) == X")
        with pytest.raises(dsl.VariableCapError, match="law has 4 free variables, cap is 3"):
            dsl._check_var_cap(law, 3)
        dsl._check_var_cap(law, 4)
        assert dsl.scan_law(space_a, law)[0] == "violated"
        # the noun agrees with the count
        with pytest.raises(dsl.VariableCapError, match=r"^law has 1 free variable, cap is 0$"):
            dsl._check_var_cap(dsl.parse_law("A == A"), 0)

    def test_full_scan_verdict(self, space_a):
        assert dsl.scan_law(space_a, dsl.parse_law("int(A) <= A"))[1] is None
        witness = dsl.scan_law(space_a, dsl.parse_law("A <= int(A)"))[1]
        assert witness.bindings == (("A", 4),)

    def test_zero_variable_law(self, space_a):
        assert dsl.scan_law(space_a, dsl.parse_law("star(empty) == empty")) == (
            "holds", None, 1,
        )


class TestLawsFile:
    def test_read_laws_file(self):
        text = """
        # leading comment
        star(union(A,B)) == union(star(A),star(B))

        A <= clstar:star(A)   # trailing comment
        """
        parsed = dsl.read_laws_file(text)
        assert [dsl.format_law(l) for l in parsed] == [
            "star(union(A,B)) == union(star(A),star(B))",
            "A <= clstar:star(A)",
        ]

    def test_read_laws_file_propagates_errors(self):
        with pytest.raises(dsl.DslSyntaxError):
            dsl.read_laws_file("star(A == A")


# DSL transliterations of the registry's equation laws.
EQUATION_TEMPLATES = {
    "additivity": "{op}(union(A,B)) == union({op}(A),{op}(B))",
    "diff-law": "diff({op}(A),{op}(B)) == diff({op}(diff(A,B)),{op}(B))",
    "psi-cap": "{psi}(inter(A,B)) == inter({psi}(A),{psi}(B))",
    "psi-cup": "{psi}(union(A,B)) == union({psi}(A),{psi}(B))",
}

KURATOWSKI_TEMPLATES = {
    "fixes-empty": "clstar:{op}(empty) == empty",
    "extensive": "A <= clstar:{op}(A)",
    "idempotent": "clstar:{op}(clstar:{op}(A)) == clstar:{op}(A)",
    "additive": "clstar:{op}(union(A,B)) == union(clstar:{op}(A),clstar:{op}(B))",
}


# The psi-fix family {a : a <= psi(a)} is a topology; the order is the
# order of the witness tags, union before inter.
ETA_TOPOLOGY_TEMPLATES = {
    "missing-empty": "empty <= {psi}(empty)",
    "missing-universe": "X <= {psi}(X)",
    "union": "union(A,B) <= {psi}(union(A,B)) if A <= {psi}(A), B <= {psi}(B)",
    "inter": "inter(A,B) <= {psi}(inter(A,B)) if A <= {psi}(A), B <= {psi}(B)",
}

# The kind-open family {a : a <= T(a)} is closed under intersection.
FAMILY_CAP_CLOSED_TEMPLATE = "inter(A,B) <= {T:inter(A,B)} if A <= {T:A}, B <= {T:B}"


def dsl_text(head: str, alias: str) -> str:
    return EQUATION_TEMPLATES[head].format(op=alias, psi=ops.PSI_ALIAS[alias])


def serial_first_violation(space, law):
    """(bindings, lhs, rhs) of the first violated assignment, first variable
    outermost and masks ascending, from ``eval_law`` alone; None if it holds."""
    names = law.free_vars
    for masks in product(range(space.n_subsets), repeat=len(names)):
        bindings = tuple(zip(names, masks))
        lhs, rhs, violated = dsl.eval_law(space, law, dict(bindings))
        if violated:
            return bindings, lhs, rhs
    return None


class TestRegistryEquivalence:
    def test_law_templates_are_the_documented_transliterations(self):
        assert laws.LAW_TEMPLATES == {
            "additivity": {None: EQUATION_TEMPLATES["additivity"]},
            "diff-law": {None: EQUATION_TEMPLATES["diff-law"]},
            "psi-cap": {"inter": EQUATION_TEMPLATES["psi-cap"]},
            "psi-cup": {"union": EQUATION_TEMPLATES["psi-cup"]},
            "kuratowski": KURATOWSKI_TEMPLATES,
            "eta-topology": ETA_TOPOLOGY_TEMPLATES,
            "family-cap-closed": {"inter": FAMILY_CAP_CLOSED_TEMPLATE},
        }
        # the first failing axiom tags a kuratowski witness, so order matters;
        # these are the ``operation`` tags ``check --json`` prints
        assert laws.KURATOWSKI_AXIOMS == ("fixes-empty", "extensive", "idempotent", "additive")

    @pytest.mark.parametrize("head", sorted(EQUATION_TEMPLATES))
    @pytest.mark.parametrize("alias", sorted(ops.LOCAL_FN_ALIASES))
    def test_equation_laws_match_registry(self, head, alias, space_a, space_b):
        law = laws.get_law(f"{head}:{alias}")
        ast = dsl.parse_law(dsl_text(head, alias))
        for space in (space_a, space_b):
            witness = law.check(space)
            serial = serial_first_violation(space, ast)
            assert (witness is None) == (serial is None)
            if witness is not None:
                assert (witness.bindings, witness.lhs, witness.rhs) == serial
                assert law.violated_at(space, witness.bindings, witness.operation)
