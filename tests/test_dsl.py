"""Law DSL: tokenizing, parsing, formatting, evaluation, scanning, and the
equivalence of DSL transliterations with the law registry.

The registry scans assignments in the same lexicographic order as the DSL
product scan, so violated laws must agree not just on the verdict but on
the exact first witness.
"""

import pytest

from idealtop import dsl, laws
from idealtop import operators as ops
from idealtop.verdicts import KURATOWSKI_AXIOMS


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
        assert isinstance(law.lhs, dsl.Compl)
        assert isinstance(law.rhs, dsl.Diff)
        assert dsl.parse_expr("empty") == dsl.Const("empty")
        assert dsl.parse_expr("X") == dsl.Const("universe")

    def test_colon_names_are_single_tokens(self):
        expr = dsl.parse_expr("clstar:sstar(A)")
        assert expr == dsl.Apply("clstar:sstar", dsl.Var("A"))

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
            dsl.eval_expr(space_a, {"A": 1}, dsl.Apply("zzz", dsl.Var("A")))


class TestScanning:
    def test_first_witness_and_count(self, space_a):
        law = dsl.parse_law("sstar(union(A,B)) == union(sstar(A),sstar(B))")
        outcome, verdict, count = dsl.scan_law(space_a, law)
        assert outcome == "violated"
        assert verdict.witness.bindings == (("A", 1), ("B", 2))
        assert (verdict.witness.lhs, verdict.witness.rhs) == (15, 3)
        # assignments run in lexicographic order with A outermost
        assert count == 1 * 16 + 2 + 1

    def test_holds_scans_everything(self, space_a):
        law = dsl.parse_law("star(union(A,B)) == union(star(A),star(B))")
        assert dsl.scan_law(space_a, law) == ("holds", dsl.Verdict.ok(), 256)

    def test_subset_relation(self, space_a):
        outcome, verdict, count = dsl.scan_law(space_a, dsl.parse_law("cl(A) <= A"))
        assert (outcome, count) == ("violated", 2)
        assert verdict.witness.bindings == (("A", 1),)
        assert (verdict.witness.lhs, verdict.witness.rhs) == (13, 1)
        assert dsl.scan_law(space_a, dsl.parse_law("A <= clstar:star(A)"))[0] == "holds"

    def test_budget_stops_early(self, space_a):
        law = dsl.parse_law("sstar(union(A,B)) == union(sstar(A),sstar(B))")
        assert dsl.scan_law(space_a, law, budget=10) == ("budget", None, 10)
        # a budget of exactly the witness index still finds it
        assert dsl.scan_law(space_a, law, budget=19)[0] == "violated"
        assert dsl.scan_law(space_a, law, budget=18)[0] == "budget"

    def test_var_cap(self, space_a):
        law = dsl.parse_law("union(union(A,B),union(C,D)) == X")
        with pytest.raises(dsl.VariableCapError):
            dsl.scan_law(space_a, law)
        outcome, _, _ = dsl.scan_law(space_a, law, var_cap=4)
        assert outcome == "violated"

    def test_check_law_wrapper(self, space_a):
        assert dsl.check_law(space_a, dsl.parse_law("int(A) <= A")).holds
        v = dsl.check_law(space_a, dsl.parse_law("A <= int(A)"))
        assert not v.holds and v.witness.bindings == (("A", 4),)

    def test_zero_variable_law(self, space_a):
        assert dsl.scan_law(space_a, dsl.parse_law("star(empty) == empty")) == (
            "holds", dsl.Verdict.ok(), 1,
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


def dsl_text(head: str, alias: str) -> str:
    return EQUATION_TEMPLATES[head].format(op=alias, psi=ops.PSI_ALIAS[alias])


class TestRegistryEquivalence:
    def test_law_templates_are_the_documented_transliterations(self):
        assert laws.LAW_TEMPLATES == {
            "additivity": {None: EQUATION_TEMPLATES["additivity"]},
            "diff-law": {None: EQUATION_TEMPLATES["diff-law"]},
            "psi-cap": {"inter": EQUATION_TEMPLATES["psi-cap"]},
            "psi-cup": {"union": EQUATION_TEMPLATES["psi-cup"]},
            "kuratowski": KURATOWSKI_TEMPLATES,
        }
        # the first failing axiom tags a kuratowski witness, so order matters
        assert tuple(laws.LAW_TEMPLATES["kuratowski"]) == KURATOWSKI_AXIOMS

    @pytest.mark.parametrize("head", sorted(EQUATION_TEMPLATES))
    @pytest.mark.parametrize("alias", sorted(ops.LOCAL_FN_ALIASES))
    def test_equation_laws_match_registry(self, head, alias, space_a, space_b):
        law = laws.get_law(f"{head}:{alias}")
        ast = dsl.parse_law(dsl_text(head, alias))
        for space in (space_a, space_b):
            direct = law.check(space)
            scanned = dsl.check_law(space, ast)
            assert direct.holds == scanned.holds
            if not direct.holds:
                assert scanned.witness.bindings == direct.witness.bindings
                assert scanned.witness.lhs == direct.witness.lhs
                assert scanned.witness.rhs == direct.witness.rhs
                assert law.witness_violates(space, scanned.witness)

    @pytest.mark.parametrize("alias", sorted(ops.LOCAL_FN_ALIASES))
    def test_kuratowski_axioms_match_registry(self, alias, space_a, space_b):
        spec = ops.LOCAL_FN_ALIASES[alias]
        for space in (space_a, space_b):
            report = laws.check_kuratowski(space, spec)
            for axiom, template in KURATOWSKI_TEMPLATES.items():
                ast = dsl.parse_law(template.format(op=alias))
                scanned = dsl.check_law(space, ast)
                direct = report.verdict(axiom)
                assert direct.holds == scanned.holds
                if not direct.holds and axiom != "fixes-empty":
                    assert scanned.witness.bindings == direct.witness.bindings
                    assert scanned.witness.lhs == direct.witness.lhs
                    assert scanned.witness.rhs == direct.witness.rhs

    def test_equivalence_holds_on_small_spaces_too(self, small_spaces):
        # cheap spot sweep: one violated-prone law across every small space
        law = laws.get_law("additivity:sstar")
        ast = dsl.parse_law(dsl_text("additivity", "sstar"))
        for space in small_spaces[::3]:
            direct = law.check(space)
            scanned = dsl.check_law(space, ast)
            assert direct.holds == scanned.holds
            if not direct.holds:
                assert scanned.witness.bindings == direct.witness.bindings
