import random
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import homophonic.presentation
from helpers import (
    inverse_oracle,
    random_letters,
    random_presentation,
    reduce_oracle,
    solve_oracle,
    strip_outer_oracle,
    substitute_oracle,
)
from homophonic.abelianization import abelian_invariants
from homophonic.presentation import (
    EliminationTrace,
    FreeOfRank,
    NotEliminableError,
    Presentation,
    Provenance,
    Relation,
    TraceInvalidError,
    Trivial,
    Unresolved,
    describe_verdict,
    eliminable,
    eliminate,
    machine_trace,
    normalize,
    relator_from_relation,
    render_trace,
    replay,
    simplify,
    solve_for,
)
from homophonic.words import (
    EMPTY_WORD,
    Alphabet,
    AlphabetMismatchError,
    Word,
    concat,
    cyclic_reduce,
    display,
    invert,
    occurrences,
    parse_word,
    substitute,
)

DE = Alphabet("de", "abcdefghijklmnopqrstuvwxyzäöüß")
TR = Alphabet("tr", "bcçdfgğhjklmnprsştvyzaeıioöuü")
ABC = Alphabet("xx", "abc")


def oracle_core(letters) -> tuple:
    """The cyclic core of the free reduction of ``letters``, by the oracles."""
    core, _ = strip_outer_oracle(tuple(reduce_oracle(list(letters))))
    return tuple(core)


def w(alphabet, text):
    return parse_word(alphabet, text)


def pres(alphabet, *relator_texts):
    return Presentation.from_relators(alphabet, [w(alphabet, t) for t in relator_texts])


class TestRelatorFromRelation:
    def test_doubled_vowel_collapses_to_one_letter(self):
        rel = Relation(w(DE, "w a a g e"), w(DE, "w a g e"))
        assert relator_from_relation(rel) == w(DE, "a")

    def test_soft_consonant_vanishes(self):
        rel = Relation(w(TR, "k a a n"), w(TR, "k a ğ a n"))
        assert relator_from_relation(rel) == w(TR, "ğ^-1")

    def test_identical_sides_are_vacuous(self):
        rel = Relation(w(DE, "a b c"), w(DE, "a b c"))
        assert relator_from_relation(rel) == EMPTY_WORD

    @given(st.integers(0, 2**32 - 1))
    def test_relator_is_the_oracle_core_of_lhs_times_rhs_inverse(self, seed):
        # Three letters make the sides cancel against each other often.
        rng = random.Random(seed)
        u = Word(tuple(reduce_oracle(random_letters(rng, ABC, 10))))
        v = Word(tuple(reduce_oracle(random_letters(rng, ABC, 10))))
        relator = relator_from_relation(Relation(u, v))
        assert relator.letters == oracle_core(list(u.letters) + inverse_oracle(v.letters))


class TestEliminate:
    def test_single_letter_relator_gives_empty_solution(self):
        p = pres(DE, "a")
        reduced, step = eliminate(p, DE.generator("a"), 0)
        assert step.solution == EMPTY_WORD
        assert reduced.relators == ()
        assert DE.generator("a").id not in reduced.live

    def test_solving_rearranges_around_the_occurrence(self):
        p = pres(TR, "a b e y e^-1 b^-1")
        reduced, step = eliminate(p, TR.generator("y"), 0)
        assert step.solution == w(TR, "e^-1 b^-1 a^-1 b e")
        # Substituting the solution back into the source relator kills it.
        check = substitute(p.relators[0], TR.generator("y"), step.solution)
        assert cyclic_reduce(check)[0] == EMPTY_WORD
        assert reduced.relators == ()

    def test_double_occurrence_is_not_eliminable(self):
        p = pres(DE, "g g")
        with pytest.raises(NotEliminableError):
            eliminate(p, DE.generator("g"), 0)

    def test_substitution_rewrites_other_relators(self):
        p = pres(DE, "a b^-1", "b c^-1")
        reduced, _ = eliminate(p, DE.generator("b"), 0)
        assert reduced.relators == (w(DE, "a c^-1"),)

    def test_relators_made_equal_are_kept_once(self):
        # Eliminating b := a turns c b c b into a second copy of c a c a.
        p = pres(DE, "a b^-1", "c a c a", "c b c b")
        reduced, _ = eliminate(p, DE.generator("b"), 0)
        assert reduced.relators == (w(DE, "c a c a"),)
        assert reduced.origins == (p.origins[1],)

    def test_relators_without_the_generator_pass_through(self):
        p = pres(DE, "a b^-1", "c d c d", "b c")
        reduced, _ = eliminate(p, DE.generator("b"), 0)
        assert reduced.relators[0] is p.relators[1]
        assert reduced.relators[1] == w(DE, "a c")

    def test_only_relators_holding_the_generator_are_substituted(self, monkeypatch):
        substituted = []
        real = homophonic.presentation.substitute

        def recording(word, g, replacement):
            substituted.append(word)
            return real(word, g, replacement)

        monkeypatch.setattr(homophonic.presentation, "substitute", recording)
        p = pres(DE, "a b^-1", "c d c d", "b c", "e f", "c b^-1 d")
        eliminate(p, DE.generator("b"), 0)
        assert substituted == [p.relators[0], p.relators[2], p.relators[4]]


class TestSimplify:
    def test_no_relators_means_free(self):
        alphabet = Alphabet("xx", "ab")
        verdict, trace = simplify(Presentation.from_relators(alphabet, []))
        assert verdict == FreeOfRank(2, alphabet.generators)
        assert trace.steps == ()

    def test_chain_collapses_to_trivial(self):
        alphabet = Alphabet("xx", "ab")
        p = pres(alphabet, "a", "b a^-1")
        verdict, trace = simplify(p)
        assert isinstance(verdict, Trivial)
        assert len(trace.steps) == 2

    def test_square_relator_is_unresolvable(self):
        p = pres(DE, "a a")
        verdict, _ = simplify(p)
        assert isinstance(verdict, Unresolved)

    def test_round_limit_yields_unresolved(self):
        p = pres(DE, "a", "b a^-1")
        verdict, trace = simplify(p, max_rounds=1)
        assert isinstance(verdict, Unresolved)
        assert len(trace.steps) == 1

    def test_each_step_retires_one_generator(self):
        p = pres(DE, "a", "b a^-1", "c b a")
        verdict, trace = simplify(p)
        assert isinstance(verdict, FreeOfRank)
        assert len(trace.steps) == len(DE) - len(trace.final.live)

    def test_relator_over_another_alphabet_rejected(self):
        # x is generator 0 of its alphabet; read as a it would free a and c.
        xyz = Alphabet("tr", "xyz")
        rel = Relation(parse_word(xyz, "x y"), EMPTY_WORD)
        with pytest.raises(AlphabetMismatchError):
            Presentation.from_relations(Alphabet("de", "abc"), [rel])

    def test_relator_over_another_alphabet_of_the_language_rejected(self):
        # x and y are ids 0 and 1 of their alphabet, but not a and b.
        rel = Relation(parse_word(Alphabet("de", "xy"), "x y"), EMPTY_WORD)
        with pytest.raises(AlphabetMismatchError):
            Presentation.from_relations(Alphabet("de", "abc"), [rel])

    def test_relator_generator_outside_the_alphabet_rejected(self):
        # d is id 3, past the end of a b c: not an eliminated generator.
        rel = Relation(parse_word(Alphabet("de", "abcd"), "d a"), EMPTY_WORD)
        with pytest.raises(AlphabetMismatchError):
            Presentation.from_relations(Alphabet("de", "abc"), [rel])

    def test_relator_over_the_same_glyphs_of_another_language_rejected(self):
        rel = Relation(parse_word(Alphabet("tr", "abc"), "a b"), EMPTY_WORD)
        with pytest.raises(AlphabetMismatchError):
            Presentation.from_relations(Alphabet("de", "abc"), [rel])

    def test_relator_with_an_eliminated_generator_rejected(self):
        abc = Alphabet("de", "abc")
        live = frozenset({0, 2})  # b is eliminated
        with pytest.raises(AlphabetMismatchError, match="not over the live generators"):
            Presentation(abc, (w(abc, "a b"),), (Provenance(),), live)

    @pytest.mark.parametrize(
        "live",
        [frozenset({-1}), frozenset({0, 1, 2, 99}), frozenset({"x"})],
        ids=["negative", "past-the-end", "not-an-id"],
    )
    def test_live_id_that_names_no_generator_rejected(self, live):
        with pytest.raises(ValueError, match="live ids must name generators"):
            Presentation(Alphabet("de", "abc"), (), (), live)

    def test_relator_that_is_not_cyclically_reduced_rejected(self):
        abc, live = Alphabet("de", "abc"), frozenset({0, 1, 2})
        with pytest.raises(ValueError, match="not cyclically reduced"):
            Presentation(abc, (w(abc, "a b a^-1"),), (Provenance(),), live)
        for text in ("a", "a b a", "a^-1 b a^-1"):
            assert Presentation(abc, (w(abc, text),), (Provenance(),), live).relators

    def test_greedy_pick_eliminates_the_largest_id(self):
        abc = Alphabet("de", "abc")
        verdict, trace = simplify(pres(abc, "a b"))
        assert [step.generator.glyph for step in trace.steps] == ["b"]
        assert verdict == FreeOfRank(2, (abc.generator("a"), abc.generator("c")))

    def test_relator_over_an_equal_alphabet_accepted(self):
        rel = Relation(parse_word(Alphabet("de", "abc"), "a b"), EMPTY_WORD)
        p = Presentation.from_relations(Alphabet("de", "abc"), [rel])
        assert p.relators == (rel.lhs,)

    def test_duplicate_relators_collapse(self):
        p = pres(DE, "a b^-1", "b a^-1", "b^-1 a")
        assert len(normalize(p).relators) == 1

    def test_deterministic_trace_text(self):
        p = pres(DE, "a b^-1 c", "b c", "c a")
        first = simplify(p)
        second = simplify(p)
        assert render_trace(first[1], first[0]) == render_trace(second[1], second[0])
        assert machine_trace(first[1]) == machine_trace(second[1])


class TestReplay:
    def test_replay_reproduces_verdict(self):
        p = pres(DE, "a", "b a^-1", "c b^-1")
        verdict, trace = simplify(p)
        assert replay(trace, p) == verdict

    def test_replay_of_bundled_corpora(self):
        from homophonic.datasets import builtin_dataset, to_presentation

        for name in ("german", "korean", "turkish"):
            p = to_presentation(builtin_dataset(name))
            verdict, trace = simplify(p)
            assert replay(trace, p) == verdict

    def test_empty_trace_on_free_presentation(self):
        alphabet = Alphabet("xx", "a")
        p = Presentation.from_relators(alphabet, [])
        verdict = replay(EliminationTrace((), p), p)
        assert verdict == FreeOfRank(1, alphabet.generators)

    def test_tampered_relator_index_detected(self):
        p = pres(DE, "a", "b b a")
        verdict, trace = simplify(p)
        bad_step = trace.steps[0].__class__(
            trace.steps[0].generator,
            trace.steps[0].solution,
            trace.steps[0].relator_index + 1,
            trace.steps[0].provenance,
        )
        tampered = EliminationTrace((bad_step,) + trace.steps[1:], trace.final)
        with pytest.raises(TraceInvalidError) as err:
            replay(tampered, p)
        assert err.value.step_index == 0

    @pytest.mark.parametrize(
        "limits",
        [{"max_rounds": 1}, {"max_rounds": 3}, {"max_rounds": 10}, {"max_relator_len": 3}],
        ids=["rounds1", "rounds3", "rounds10", "len3"],
    )
    @pytest.mark.parametrize("name", ["german", "korean", "turkish"])
    def test_replay_reproduces_bound_stopped_verdict(self, name, limits):
        from homophonic.datasets import builtin_dataset, to_presentation

        p = to_presentation(builtin_dataset(name))
        verdict, trace = simplify(p, **limits)
        assert replay(trace, p) == verdict

    def test_length_bound_stop_leaves_normalized_presentation(self):
        # Eliminating b := a makes the two long relators equal.
        p = pres(DE, "a b^-1", "c a c a", "c b c b")
        verdict, trace = simplify(p, max_relator_len=3)
        assert verdict.remaining.relators == (w(DE, "c a c a"),)
        assert replay(trace, p) == verdict

    def test_tampered_solution_detected(self):
        p = pres(DE, "a", "b a^-1", "c b^-1")
        _, trace = simplify(p)
        bad_step = replace(trace.steps[1], solution=concat(trace.steps[1].solution, w(DE, "z")))
        steps = trace.steps[:1] + (bad_step,) + trace.steps[2:]
        with pytest.raises(TraceInvalidError) as err:
            replay(EliminationTrace(steps, trace.final), p)
        assert err.value.step_index == 1

    def test_one_step_too_many_detected(self):
        p = pres(DE, "a", "b a^-1", "c b^-1")
        _, trace = simplify(p)
        steps = trace.steps + trace.steps[-1:]
        with pytest.raises(TraceInvalidError) as err:
            replay(EliminationTrace(steps, trace.final), p)
        assert err.value.step_index == len(trace.steps)


class TestVerdictText:
    def test_trivial_line(self):
        assert (
            describe_verdict(Trivial(), eliminated=30)
            == "verdict: trivial (30 generators eliminated)"
        )

    def test_free_line_lists_basis(self):
        alphabet = Alphabet("xx", "ab")
        verdict = FreeOfRank(2, alphabet.generators)
        assert describe_verdict(verdict) == "verdict: free of rank 2; basis: a b"

    def test_unresolved_line(self):
        p = pres(DE, "a a")
        verdict, _ = simplify(p)
        text = describe_verdict(verdict)
        assert text.startswith("verdict: unresolved (")

    def test_trace_table_has_witness_column(self):
        provenance = Provenance("word-pair", "waage", "wage", "scales/(I) dare", "x")
        rel = Relation(w(DE, "w a a g e"), w(DE, "w a g e"), provenance)
        p = Presentation.from_relations(DE, [rel])
        verdict, trace = simplify(p)
        table = render_trace(trace, verdict)
        assert "a | waage --- wage (scales/(I) dare)" in table.splitlines()[0]


class TestEliminationProperties:
    def test_solution_kills_source_relator(self):
        rng = random.Random(7)
        for _ in range(200):
            p = random_presentation(rng)
            for index, g in eliminable(p):
                solution = solve_for(p.relators[index], g)
                residue = substitute(p.relators[index], g, solution)
                assert cyclic_reduce(residue)[0] == EMPTY_WORD

    def test_single_elimination_preserves_abelian_invariants(self):
        rng = random.Random(11)
        for _ in range(120):
            p = random_presentation(rng)
            before = abelian_invariants(p)
            for index, g in eliminable(p):
                after = abelian_invariants(eliminate(p, g, index)[0])
                assert after.free_rank == before.free_rank
                assert after.torsion == before.torsion

    def test_normalize_is_idempotent(self):
        rng = random.Random(17)
        for _ in range(200):
            p = random_presentation(rng)
            assert normalize(normalize(p)) == normalize(p)

    def test_eliminate_returns_a_normalized_presentation(self):
        rng = random.Random(19)
        for _ in range(200):
            p = random_presentation(rng)
            for index, g in eliminable(p):
                reduced = eliminate(p, g, index)[0]
                assert normalize(reduced) == reduced

    def test_passed_through_relators_keep_their_derived_facts(self):
        rng = random.Random(23)
        passed = 0
        for _ in range(200):
            p = random_presentation(rng)
            facts = {id(w): (w.counts, w.cyclic_key) for w in p.relators}
            for index, g in eliminable(p):
                for w in eliminate(p, g, index)[0].relators:
                    if any(w is u for u in p.relators):
                        counts, key = facts[id(w)]
                        assert w.counts is counts and w.cyclic_key is key
                        passed += 1
        assert passed > 100, passed

    def test_rebuilt_relators_are_the_oracle_cores_of_the_substitution(self):
        rng = random.Random(29)
        rebuilt = 0
        for _ in range(200):
            p = random_presentation(rng)
            for index, g in eliminable(p):
                reduced, step = eliminate(p, g, index)
                solution = solve_oracle(p.relators[index].letters, g)
                assert step.solution.letters == tuple(reduce_oracle(solution))
                expected = [
                    oracle_core(substitute_oracle(u.letters, g, solution))
                    for u in p.relators
                    if occurrences(u, g)
                ]
                for w in reduced.relators:
                    if any(w is u for u in p.relators):
                        assert occurrences(w, g) == 0
                    else:
                        assert w.letters in expected
                        rebuilt += 1
        assert rebuilt > 100, rebuilt

    def test_live_set_shrinks_by_one_per_step(self):
        rng = random.Random(13)
        for _ in range(100):
            p = random_presentation(rng)
            verdict, trace = simplify(p)
            assert len(trace.final.live) == len(p.live) - len(trace.steps)
            if isinstance(verdict, FreeOfRank):
                invariants = abelian_invariants(p)
                assert invariants.free_rank == verdict.rank
                assert invariants.torsion == ()
            if isinstance(verdict, Trivial):
                invariants = abelian_invariants(p)
                assert invariants.free_rank == 0
                assert invariants.torsion == ()
