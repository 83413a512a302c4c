"""Property tests for the engine's schema compiler.

The central invariant: for every content model, the compiled minimal-DFA
table (``repro.engine.compile_regex``) accepts exactly the words the
reference matcher (``ContentModel.matches_children`` — Brzozowski
derivatives over the regex AST) accepts.  Random words over the model's
alphabet probe both directions; schema-level tests then check that
``compile_xsd`` wires types, child maps, and attribute bitsets correctly.
"""

import pytest
from hypothesis import given, strategies as st

from repro.engine import (
    ContentBag,
    compile_regex,
    compile_xsd,
    schema_fingerprint,
)
from repro.engine.compiler import bag_members, compile_content
from repro.errors import BudgetExceeded
from repro.observability import ResourceBudget, first_divergence
from repro.regex.ast import (
    EPSILON,
    EmptySet,
    concat,
    counter,
    interleave,
    optional,
    plus,
    star,
    sym,
    union,
)
from repro.xsd.content import AttributeUse, ContentModel
from repro.xsd.model import XSD
from repro.xsd.typednames import TypedName

pytestmark = pytest.mark.differential

ALPHABET = ["a", "b", "c"]


def regex_strategy(max_leaves=6):
    """Random regexes over {a, b, c}, all engine-supported operators."""
    leaves = st.one_of(
        st.sampled_from(ALPHABET).map(sym),
        st.just(EPSILON),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda pair: concat(*pair)),
            st.tuples(children, children).map(lambda pair: union(*pair)),
            st.tuples(children, children).map(
                lambda pair: interleave(*pair)
            ),
            children.map(star),
            children.map(plus),
            children.map(optional),
            st.tuples(
                children,
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=2),
            ).map(lambda triple: counter(
                triple[0], triple[1], triple[1] + triple[2]
            )),
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)


words = st.lists(st.sampled_from(ALPHABET + ["d"]), max_size=10)


class TestCompileRegex:
    @given(regex=regex_strategy(), word=words)
    def test_dfa_agrees_with_derivative_matcher(self, regex, word):
        model = ContentModel(regex)
        dfa = compile_regex(regex)
        assert dfa.accepts(word) == model.matches_children(word)

    @given(regex=regex_strategy())
    def test_empty_word_agreement(self, regex):
        model = ContentModel(regex)
        assert compile_regex(regex).accepts([]) == \
            model.matches_children([])

    def test_random_words_fresh_rng(self, rng):
        # conftest-style fresh-rng sweep: denser than hypothesis shrinking
        # for the pure word-agreement property.
        from repro.regex.parser import parse_regex
        from tests.conftest import make_random_word

        expressions = [
            "(a b)* c?",
            "(a | b c)+",
            "a{2,4} (b | c)",
            "(a & b & c?)",
            "((a | b)* c){1,2}",
            "(a? b?)*",
        ]
        for source in expressions:
            regex = parse_regex(source)
            model = ContentModel(regex)
            dfa = compile_regex(regex)
            for __ in range(200):
                word = make_random_word(rng, ALPHABET + ["d"], max_length=9)
                assert dfa.accepts(word) == model.matches_children(word), (
                    source, word
                )

    def test_minimality_and_liveness(self):
        dfa = compile_regex(star(concat(sym("a"), sym("b"))))
        # (ab)*: minimal complete DFA has 3 states (start/accepting,
        # after-a, sink); the sink is the only dead state.
        assert len(dfa) == 3
        assert sum(dfa.live) == 2
        assert dfa.acc_bits & 1 and dfa.is_accepting(0)

    def test_empty_language(self):
        dfa = compile_regex(EmptySet())
        assert not dfa.accepts([])
        assert not dfa.accepts(["a"])

    def test_epsilon_only(self):
        dfa = compile_regex(EPSILON)
        assert dfa.accepts([])
        assert not dfa.accepts(["a"])
        assert dfa.symbols == ()

    def test_foreign_symbols_rejected(self):
        dfa = compile_regex(star(sym("a")))
        assert dfa.accepts(["a", "a"])
        assert not dfa.accepts(["a", "z"])


def T(name, type_name):
    return TypedName(name, type_name)


@pytest.fixture
def xsd():
    return XSD(
        ename={"doc", "item", "note"},
        types={"Tdoc", "Titem", "Tnote"},
        rho={
            "Tdoc": ContentModel(
                plus(sym(T("item", "Titem"))),
                attributes=(
                    AttributeUse("version", required=True),
                    AttributeUse("lang", required=False),
                ),
            ),
            "Titem": ContentModel(
                star(sym(T("note", "Tnote"))), mixed=True
            ),
            "Tnote": ContentModel(EPSILON),
        },
        start={T("doc", "Tdoc")},
    )


MULTIPLICITIES = (lambda s: s, optional, star, plus)

bag_regexes = st.lists(
    st.sampled_from(MULTIPLICITIES), min_size=2, max_size=4
).map(lambda wraps: interleave(*(
    wrap(sym(name)) for wrap, name in zip(wraps, ALPHABET + ["d"])
)))

bag_words = st.lists(st.sampled_from(ALPHABET + ["d", "e"]), max_size=9)


class TestContentBag:
    """Bags accept, step and explain exactly like the minimal DFA."""

    def test_shape_test(self):
        assert bag_members(interleave(sym("a"), optional(sym("b")),
                                      star(sym("c")), plus(sym("d")))) == {
            "a": (True, False), "b": (False, False),
            "c": (False, True), "d": (True, True),
        }
        for regex in (
            concat(sym("a"), sym("b")),
            sym("a"),
            interleave(sym("a"), counter(sym("b"), 2, 3)),
            interleave(sym("a"), concat(sym("b"), sym("c"))),
            interleave(sym("a"), optional(sym("a"))),
        ):
            assert bag_members(regex) is None
            assert not isinstance(compile_content(regex), ContentBag)

    @given(regex=bag_regexes, word=bag_words)
    def test_bag_agrees_with_minimal_dfa(self, regex, word):
        bag = compile_content(regex)
        assert isinstance(bag, ContentBag)
        dfa = compile_regex(regex)
        assert bag.symbols == dfa.symbols
        assert bag.accepts(word) == dfa.accepts(word)
        # Diagnostics come from the masks and read exactly like the DFA's.
        assert first_divergence(bag, word) == first_divergence(dfa, word)

    def test_wide_bag_compiles_without_states(self):
        members = [sym(f"m{i:02d}") for i in range(24)]
        with ResourceBudget(max_states=10, max_seconds=0.5) as budget:
            bag = compile_content(interleave(*members))
        assert budget.states_created == 0
        assert len(bag) == 25
        word = [f"m{i:02d}" for i in reversed(range(24))]
        assert bag.accepts(word)
        assert not bag.accepts(word[1:])
        assert not bag.accepts(word + ["m05"])


class TestCompileBudget:
    def test_counted_all_group_exceeds_the_budget(self):
        # Six {2,3}-counted members: outside the bag shape, so the
        # 4097-state DFA is built, and the budget stops it.
        regex = interleave(*(counter(sym(f"m{i}"), 2, 3) for i in range(6)))
        with pytest.raises(BudgetExceeded) as info:
            with ResourceBudget(max_states=1000, max_seconds=0.5):
                compile_content(regex)
        assert info.value.stats["where"] == "regex.to_dfa"

    def test_small_content_charges_its_states(self):
        with ResourceBudget(max_states=100) as budget:
            compile_regex(concat(sym("a"), star(sym("b"))))
        assert budget.states_created > 0

    def test_minimize_checks_the_deadline_without_charging(self):
        # The quotient is never larger than its input, whose construction
        # charged the states; minimize only watches the clock.
        import time

        from repro.automata.minimize import minimize
        from repro.regex.derivatives import to_dfa

        dfa = to_dfa(concat(sym("a"), star(sym("b"))))
        with ResourceBudget(max_seconds=1e-9) as budget:
            time.sleep(0.002)
            with pytest.raises(BudgetExceeded) as info:
                minimize(dfa)
        assert info.value.stats["where"] == "automata.minimize"
        assert budget.states_created == 0


class TestCompileXSD:
    def test_child_maps_follow_edc(self, xsd):
        compiled = compile_xsd(xsd)
        tdoc = compiled.type_named("Tdoc")
        column = tdoc.dfa.symbol_ids.get("item", -1)
        assert tdoc.dfa.symbols[column] == "item"
        assert compiled.types[tdoc.child_types[column]].name == "Titem"
        # The scan steps the DFA's own table at that column.
        table = compiled.dense_types[compiled.type_ids["Tdoc"]][0]
        assert table is tdoc.dfa.table
        # A name of the schema that is a child of another type maps to
        # no column, and column -1 reads the trailing "not a child" entry.
        assert "note" in compiled.names
        column = tdoc.dfa.symbol_ids.get("note", -1)
        assert column == -1
        assert tdoc.child_types[column] == -1

    def test_no_type_holds_a_map_over_the_whole_alphabet(self):
        # A type's containers grow with its own children and states,
        # never with the schema's name set: on the 111-type ordinary XSD
        # (1,111 names, at most 10 children a type) none is that long.
        from repro.families import ordinary_xsd
        from repro.xsd.reader import read_xsd

        compiled = compile_xsd(read_xsd(ordinary_xsd()[0]))
        width = len(compiled.names)
        assert width == 1111
        for compiled_type in compiled.types:
            held = [getattr(compiled_type, slot)
                    for slot in type(compiled_type).__slots__]
            dfa = compiled_type.dfa
            held += [getattr(dfa, slot) for slot in type(dfa).__slots__]
            held += getattr(dfa, "table", ())
            for value in held:
                if hasattr(value, "__len__"):
                    assert len(value) < width, (compiled_type.name, value)

    def test_interned_non_child_is_not_allowed_on_every_route(self, xsd):
        # <note> is a schema name (a child of Titem) but no child of Tdoc
        # (item+), so its column under Tdoc is -1.  A route that stepped
        # on column -1 would read it as Tdoc's last child, <item>, and
        # accept, or type it with the last type id.  Every route must
        # report it "not allowed" and leave it untyped.
        from repro.engine import StreamingValidator, ValidatedDocument
        from repro.observability import default_registry
        from repro.xmlmodel import parse_document
        from repro.xmlmodel.parser import iter_events
        from repro.xmlmodel.tree import XMLElement
        from repro.xsd.validator import validate_xsd

        compiled = compile_xsd(xsd)
        expected = (
            ["/doc: element <note> is not allowed under <doc> (type Tdoc)"],
            {"/doc[1]": "Tdoc", "/doc[1]/item[1]": "Titem"},
        )

        def outcome(report):
            return report.violations, dict(report.typing)

        validator = StreamingValidator(compiled)
        fallbacks = default_registry().counter("engine.dense.fallbacks")
        for note in ("<note/>", "<note></note>"):  # both scan sites
            text = f'<doc version="1"><item/>{note}</doc>'
            tree = parse_document(text)
            assert outcome(validate_xsd(xsd, tree)) == expected
            before = fallbacks.value
            assert outcome(validator.validate(text)) == expected
            assert fallbacks.value == before + 1  # the scan refused it
            assert outcome(validator.validate_events(
                iter_events(text))) == expected
            assert outcome(ValidatedDocument(tree, compiled).report()) \
                == expected

        handle = ValidatedDocument(
            parse_document('<doc version="1"><item/></doc>'), compiled)
        handle.insert_child(handle.document.root, 1, XMLElement("note"))
        assert outcome(handle.report()) == expected
        assert len(handle) == 2  # <note> was not typed
        handle = ValidatedDocument(
            parse_document('<doc version="1"><item/><item/></doc>'), compiled)
        root = handle.document.root
        handle.replace_subtree(root.children[1], XMLElement("note"))
        assert outcome(handle.report()) == expected
        assert len(handle) == 2 and not handle.valid

    @pytest.mark.parametrize(("text", "answer"), [
        # an end tag naming another declared element (a mismatch)
        ('<doc version="1"><item></note></doc>', "error"),
        ('<doc version="1"><item/></item></doc>', "error"),
        # names outside the schema's alphabet: a child, a root, an end tag
        ('<doc version="1"><item/><zz/></doc>', "report"),
        ('<doc version="1"><item><zz>x</zz></item></doc>', "report"),
        ("<zz/>", "report"),
        ('<doc version="1"><item></zz></doc>', "error"),
    ])
    def test_foreign_names_fall_back_to_the_char_tier(self, xsd, text,
                                                       answer):
        # The scan compares end tags by name and finds columns by name;
        # neither may commit these, and the compat route's report or
        # error is the answer.
        from repro.engine import StreamingValidator
        from repro.errors import ParseError
        from repro.observability import default_registry
        from repro.xmlmodel.parser import iter_events

        def outcome(thunk):
            try:
                report = thunk()
            except ParseError as error:
                return ("error", str(error), error.line, error.column)
            return ("report", report.violations, dict(report.typing))

        validator = StreamingValidator(compile_xsd(xsd))
        fallbacks = default_registry().counter("engine.dense.fallbacks")
        before = fallbacks.value
        scan = outcome(lambda: validator.validate(text))
        assert fallbacks.value == before + 1
        assert scan == outcome(
            lambda: validator.validate_events(iter_events(text)))
        assert scan[0] == answer

    def test_start_and_roots(self, xsd):
        compiled = compile_xsd(xsd)
        assert compiled.start_names == ("doc",)
        assert compiled.types[compiled.start["doc"]].name == "Tdoc"
        assert "item" not in compiled.start

    def test_attribute_bitsets(self, xsd):
        compiled = compile_xsd(xsd)
        tdoc = compiled.type_named("Tdoc")
        assert tdoc.required_attrs == ("version",)
        assert tdoc.required_set == {"version"}
        assert tdoc.declared_attrs == {"version", "lang"}
        titem = compiled.type_named("Titem")
        assert titem.declared_attrs == frozenset()
        assert titem.required_attrs == () and not titem.required_set
        assert titem.mixed and not tdoc.mixed

    def test_content_language_per_type(self, xsd):
        compiled = compile_xsd(xsd)
        assert compiled.type_named("Tdoc").dfa.accepts(["item", "item"])
        assert not compiled.type_named("Tdoc").dfa.accepts([])
        assert compiled.type_named("Tnote").dfa.accepts([])
        assert not compiled.type_named("Tnote").dfa.accepts(["note"])

    def test_fingerprint_stability(self, xsd):
        copy = XSD(
            ename=set(xsd.ename),
            types=set(xsd.types),
            rho=dict(xsd.rho),
            start=set(xsd.start),
        )
        assert schema_fingerprint(xsd) == schema_fingerprint(copy)
        other = XSD(
            ename=xsd.ename,
            types=xsd.types,
            rho={**xsd.rho, "Tnote": ContentModel(optional(
                sym(T("note", "Tnote"))
            ))},
            start=xsd.start,
        )
        assert schema_fingerprint(xsd) != schema_fingerprint(other)
