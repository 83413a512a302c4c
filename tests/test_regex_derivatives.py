"""Unit tests for Brzozowski derivatives and the derivative matcher."""

import pytest

from repro.regex.ast import EMPTY, EPSILON, Counter, UNBOUNDED
from repro.regex.derivatives import (
    DerivativeMatcher,
    LazyDFA,
    derivative,
    matches,
    to_dfa,
)
from repro.regex.parser import parse_regex


def M(text):
    return parse_regex(text)


class TestDerivative:
    def test_symbol(self):
        assert derivative(M("a"), "a") == EPSILON
        assert derivative(M("a"), "b") == EMPTY

    def test_epsilon_and_empty(self):
        assert derivative(EPSILON, "a") == EMPTY
        assert derivative(EMPTY, "a") == EMPTY

    def test_concat_non_nullable_head(self):
        assert derivative(M("a b"), "a") == M("b")
        assert derivative(M("a b"), "b") == EMPTY

    def test_concat_nullable_head(self):
        derived = derivative(M("a? b"), "b")
        assert derived == EPSILON

    def test_star(self):
        derived = derivative(M("(a b)*"), "a")
        assert matches(derived, ["b"])
        assert matches(derived, ["b", "a", "b"])
        assert not matches(derived, [])


class TestMatches:
    @pytest.mark.parametrize(
        "pattern,word,expected",
        [
            ("a b c", "abc", True),
            ("a b c", "ab", False),
            ("(a | b)*", "", True),
            ("(a | b)*", "abba", True),
            ("(a | b)+", "", False),
            ("a? b", "b", True),
            ("a? b", "ab", True),
            ("a? b", "aab", False),
            ("a{2,3}", "a", False),
            ("a{2,3}", "aa", True),
            ("a{2,3}", "aaa", True),
            ("a{2,3}", "aaaa", False),
            ("a{2,*}", "aaaaaa", True),
            ("(a b){2,2}", "abab", True),
            ("(a b){2,2}", "ab", False),
            ("#eps", "", True),
            ("#eps", "a", False),
            ("#empty", "", False),
        ],
    )
    def test_words(self, pattern, word, expected):
        assert matches(M(pattern), list(word)) is expected

    @pytest.mark.parametrize(
        "pattern,word,expected",
        [
            ("a & b", "ab", True),
            ("a & b", "ba", True),
            ("a & b", "ab b", False),
            ("a & b & c", "cab", True),
            ("a? & b", "b", True),
            ("a? & b", "ab", True),
            ("a? & b", "a", False),
            ("a{2,2} & b", "aab", True),
            ("a{2,2} & b", "aba", True),
            ("a{2,2} & b", "ab", False),
        ],
    )
    def test_interleave(self, pattern, word, expected):
        word = [w for w in word if w != " "]
        assert matches(M(pattern), list(word)) is expected

    def test_counter_of_nullable_body(self):
        # (a?){2,2} accepts "", "a", "aa"
        pattern = Counter(M("a?"), 2, 2)
        assert matches(pattern, [])
        assert matches(pattern, ["a"])
        assert matches(pattern, ["a", "a"])
        assert not matches(pattern, ["a", "a", "a"])


class TestDerivativeMatcher:
    def test_memoization_and_matching(self):
        matcher = DerivativeMatcher(M("(a | b)* c"))
        assert matcher.matches(["a", "b", "c"])
        assert not matcher.matches(["c", "c"])
        # Memoized transitions are reused.
        assert matcher.matches(["a", "b", "c"])

    def test_first_mismatch_dead_prefix(self):
        matcher = DerivativeMatcher(M("a b c"))
        assert matcher.first_mismatch(["a", "x"]) == 1

    def test_first_mismatch_incomplete(self):
        matcher = DerivativeMatcher(M("a b c"))
        assert matcher.first_mismatch(["a", "b"]) == 2

    def test_first_mismatch_none_on_match(self):
        matcher = DerivativeMatcher(M("a b c"))
        assert matcher.first_mismatch(["a", "b", "c"]) is None

    def test_is_dead(self):
        matcher = DerivativeMatcher(M("a"))
        state = matcher.step(matcher.start(), "b")
        assert matcher.is_dead(state)


class TestToDfa:
    def test_language_preserved(self):
        dfa = to_dfa(M("(a b)* c"), alphabet={"a", "b", "c"})
        assert dfa.accepts(["c"])
        assert dfa.accepts(["a", "b", "c"])
        assert not dfa.accepts(["a", "c"])
        assert not dfa.accepts([])

    def test_complete_over_alphabet(self):
        dfa = to_dfa(M("a"), alphabet={"a", "b"})
        assert dfa.is_complete()

    def test_empty_language(self):
        dfa = to_dfa(M("#empty"), alphabet={"a"})
        assert dfa.accepts_nothing()

    def test_interleave_dfa(self):
        dfa = to_dfa(M("a & b & c"), alphabet={"a", "b", "c"})
        assert dfa.accepts(["b", "c", "a"])
        assert not dfa.accepts(["b", "c"])

    def test_counter_dfa(self):
        dfa = to_dfa(M("a{3,5}"), alphabet={"a"})
        accepted = [n for n in range(8) if dfa.accepts(["a"] * n)]
        assert accepted == [3, 4, 5]


class TestLazyDFA:
    def test_builds_only_the_states_it_reaches(self):
        names = [f"m{i:02d}" for i in range(24)]
        lazy = LazyDFA(M(" & ".join(names)), names)
        state = lazy.initial
        for name in names:
            state = lazy.step(state, name)
        assert state in lazy.accepting
        assert len(lazy) == 25  # the 2^24-state DFA is never built
        assert lazy.step(state, "zzz") is None  # off the alphabet
