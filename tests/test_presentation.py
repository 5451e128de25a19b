import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import homophonic.presentation
from helpers import (
    assert_exact_word,
    assert_reduced,
    from_relators,
    inverse_oracle,
    random_letters,
    random_presentation,
    reduce_oracle,
    solve_oracle,
    strip_outer_oracle,
    substitute_oracle,
)
from homophonic.abelianization import abelian_invariants, exponent_matrix
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
    SignedLetter,
    Word,
    concat,
    cyclic_reduce,
    display,
    invert,
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
    return from_relators(alphabet, [w(alphabet, t) for t in relator_texts])


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

    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_sides_with_a_common_prefix_and_suffix(self, seed, equal):
        # lhs = p a s and rhs = p b s, or the same word twice, which gives no relator.
        rng = random.Random(seed)
        p, a, b, s = (reduce_oracle(random_letters(rng, ABC, 6)) for _ in range(4))
        u = Word(tuple(reduce_oracle(p + a + s)))
        v = u if equal else Word(tuple(reduce_oracle(p + b + s)))
        relator = relator_from_relation(Relation(u, v))
        assert_reduced(relator)
        assert relator.letters == oracle_core(list(u.letters) + inverse_oracle(v.letters))
        assert not equal or relator == EMPTY_WORD


class TestEliminate:
    def test_single_letter_relator_gives_empty_solution(self):
        p = pres(DE, "a")
        reduced, step = eliminate(p, DE.generator("a"), 0)
        assert step.solution == EMPTY_WORD
        assert reduced.relators == ()
        assert DE.generator("a") not in reduced.live

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
        verdict, trace = simplify(from_relators(alphabet, []))
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
        live = frozenset({abc.generator("a"), abc.generator("c")})  # b is eliminated
        with pytest.raises(AlphabetMismatchError, match="not over the live generators"):
            Presentation(abc, (w(abc, "a b"),), (Provenance(),), live)

    # Members a b c does not hold: a of another language, the d past its end,
    # and a bare int.
    @pytest.mark.parametrize(
        "extra",
        [Alphabet("tr", "abc").generator("a"), Alphabet("de", "abcd").generator("d"), 0],
        ids=["negative", "past-the-end", "not-an-id"],
    )
    def test_live_id_that_names_no_generator_rejected(self, extra):
        abc = Alphabet("de", "abc")
        with pytest.raises(ValueError, match="must be generators of the alphabet"):
            Presentation(abc, (), (), abc.generator_set | {extra})

    @pytest.mark.parametrize(
        "relators, origins, message",
        [
            (("a b",), (), "origins must align with relators"),
            (("a b", ""), (Provenance(), Provenance()), "empty relator"),
        ],
        ids=["misaligned", "empty"],
    )
    def test_malformed_relators_rejected(self, relators, origins, message):
        abc = Alphabet("de", "abc")
        words = tuple(w(abc, text) for text in relators)
        with pytest.raises(ValueError, match=message):
            Presentation(abc, words, origins, abc.generator_set)

    def test_relator_that_is_not_cyclically_reduced_rejected(self):
        abc = Alphabet("de", "abc")
        live = abc.generator_set
        with pytest.raises(ValueError, match="not cyclically reduced"):
            Presentation(abc, (w(abc, "a b a^-1"),), (Provenance(),), live)
        for text in ("a", "a b a", "a^-1 b a^-1"):
            assert Presentation(abc, (w(abc, text),), (Provenance(),), live).relators

    @pytest.mark.parametrize(
        "limits, reason",
        [
            ({"max_rounds": 0}, "round limit reached"),
            ({"max_relator_len": 2}, "relator length limit exceeded"),
        ],
    )
    def test_unresolved_reason_names_the_bound_that_fired(self, limits, reason):
        from homophonic.datasets import builtin_dataset, to_presentation

        verdict, _ = simplify(to_presentation(builtin_dataset("german")), **limits)
        assert verdict.reason == reason

    def test_unresolved_reason_without_a_bound(self):
        verdict, _ = simplify(pres(Alphabet("xx", "a"), "a a"))
        assert verdict.reason == "no relator with a single-occurrence generator"

    def test_unresolved_verdicts_equal_whatever_their_reasons(self):
        p = pres(DE, "a a")
        assert Unresolved(p, "round limit reached") == Unresolved(p, "some other reason")

    def test_two_loads_of_a_corpus_are_equal(self):
        from homophonic.datasets import builtin_dataset, to_presentation

        first = to_presentation(builtin_dataset("german"))
        again = to_presentation(builtin_dataset("german"))
        assert first.alphabet is not again.alphabet
        assert first == again
        assert hash(first) == hash(again)

    def test_two_loads_of_a_corpus_give_equal_bound_stopped_runs(self):
        from homophonic.datasets import builtin_dataset, to_presentation

        first = simplify(to_presentation(builtin_dataset("german")), max_rounds=3)
        again = simplify(to_presentation(builtin_dataset("german")), max_rounds=3)
        assert isinstance(first[0], Unresolved)
        assert first == again

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
        p = from_relators(alphabet, [])
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
        bad_step = trace.steps[1]._replace(solution=concat(trace.steps[1].solution, w(DE, "z")))
        steps = trace.steps[:1] + (bad_step,) + trace.steps[2:]
        with pytest.raises(TraceInvalidError) as err:
            replay(EliminationTrace(steps, trace.final), p)
        assert err.value.step_index == 1

    def test_first_bad_step_is_named_before_a_later_one(self):
        p = pres(DE, "a", "b a^-1", "c b^-1")
        _, trace = simplify(p)
        first, second, third = trace.steps
        bad_solution = first._replace(solution=concat(first.solution, w(DE, "z")))
        bad_index = third._replace(relator_index=99)
        with pytest.raises(TraceInvalidError) as err:
            replay(EliminationTrace((bad_solution, second, bad_index), trace.final), p)
        assert err.value.step_index == 0

    def test_forged_final_presentation_detected(self):
        from homophonic.datasets import builtin_dataset, to_presentation

        p = to_presentation(builtin_dataset("german"))
        _, trace = simplify(p, max_rounds=3)
        final = trace.final
        forged = Presentation(final.alphabet, final.relators[:1], final.origins[:1], final.live)
        with pytest.raises(TraceInvalidError) as err:
            replay(EliminationTrace(trace.steps, forged), p)
        assert err.value.step_index == len(trace.steps)

    def test_final_presentation_of_a_second_load_accepted(self):
        from homophonic.datasets import builtin_dataset, to_presentation

        verdict, trace = simplify(to_presentation(builtin_dataset("german")), max_rounds=3)
        again = to_presentation(builtin_dataset("german"))
        assert again.alphabet is not trace.final.alphabet
        assert replay(trace, again) == verdict

    def test_one_step_too_many_detected(self):
        p = pres(DE, "a", "b a^-1", "c b^-1")
        _, trace = simplify(p)
        steps = trace.steps + trace.steps[-1:]
        with pytest.raises(TraceInvalidError) as err:
            replay(EliminationTrace(steps, trace.final), p)
        assert err.value.step_index == len(trace.steps)

    @pytest.mark.parametrize("field", ["relator_index", "solution", "provenance", "generator"])
    def test_a_step_with_one_field_changed_is_rejected_at_that_step(self, field):
        def changed(step, live, rng):
            if field == "relator_index":
                return step._replace(relator_index=step.relator_index + 1)
            if field == "solution":
                extra = Word((SignedLetter(rng.choice(sorted(live)), rng.choice((1, -1))),))
                return step._replace(solution=concat(step.solution, extra))
            if field == "provenance":
                return step._replace(provenance=Provenance(lhs="forged", rhs="1"))
            others = sorted(live - {step.generator})
            return step._replace(generator=rng.choice(others)) if others else None

        rejected = 0
        for seed in range(300):
            rng = random.Random(seed)
            p = random_presentation(rng)
            _, trace = simplify(p)
            if not trace.steps:
                continue
            k = rng.randrange(len(trace.steps))
            live = p.live - {step.generator for step in trace.steps[:k]}
            bad = changed(trace.steps[k], live, rng)
            if bad is None:
                continue
            steps = trace.steps[:k] + (bad,) + trace.steps[k + 1 :]
            with pytest.raises(TraceInvalidError) as err:
                replay(EliminationTrace(steps, trace.final), p)
            assert err.value.step_index == k, (seed, err.value)
            rejected += 1
        assert rejected >= 100

    def test_replay_of_a_round_stopped_trace_has_no_reason(self):
        from homophonic.datasets import builtin_dataset, to_presentation

        p = to_presentation(builtin_dataset("german"))
        verdict, trace = simplify(p, max_rounds=3)
        replayed = replay(trace, p)
        assert verdict.reason == "round limit reached"
        assert replayed == verdict
        assert replayed.reason == ""

    # On German's greedy trace no two adjacent steps commute, so a dropped or
    # swapped step is caught at its own index.
    def test_a_dropped_step_is_rejected_at_its_index(self):
        from homophonic.datasets import builtin_dataset, to_presentation

        p = to_presentation(builtin_dataset("german"))
        _, trace = simplify(p)
        for k in range(len(trace.steps)):
            steps = trace.steps[:k] + trace.steps[k + 1 :]
            with pytest.raises(TraceInvalidError) as err:
                replay(EliminationTrace(steps, trace.final), p)
            assert err.value.step_index == k

    def test_two_swapped_steps_are_rejected_at_the_first(self):
        from homophonic.datasets import builtin_dataset, to_presentation

        p = to_presentation(builtin_dataset("german"))
        _, trace = simplify(p)
        for k in range(len(trace.steps) - 1):
            steps = trace.steps[:k] + (trace.steps[k + 1], trace.steps[k]) + trace.steps[k + 2 :]
            with pytest.raises(TraceInvalidError) as err:
                replay(EliminationTrace(steps, trace.final), p)
            assert err.value.step_index == k

    def test_a_negative_relator_index_is_rejected(self):
        # c is solved from the last relator, which index -1 also names in Python.
        p = pres(ABC, "a b", "c")
        _, trace = simplify(p)
        assert trace.steps[0].relator_index == len(p.relators) - 1
        steps = (trace.steps[0]._replace(relator_index=-1),) + trace.steps[1:]
        with pytest.raises(TraceInvalidError, match="is not eliminable") as err:
            replay(EliminationTrace(steps, trace.final), p)
        assert err.value.step_index == 0

    def test_a_generator_eliminated_earlier_is_rejected(self):
        from homophonic.datasets import builtin_dataset, to_presentation

        p = to_presentation(builtin_dataset("german"))
        _, trace = simplify(p)
        for k in range(1, len(trace.steps)):
            bad = trace.steps[k]._replace(generator=trace.steps[k - 1].generator)
            steps = trace.steps[:k] + (bad,) + trace.steps[k + 1 :]
            with pytest.raises(TraceInvalidError, match="is not eliminable") as err:
                replay(EliminationTrace(steps, trace.final), p)
            assert err.value.step_index == k

    @pytest.mark.parametrize(
        "limits",
        [{}, {"max_rounds": 2}, {"max_relator_len": 4}],
        ids=["unbounded", "rounds2", "len4"],
    )
    def test_traces_of_a_random_pick_replay(self, limits):
        from homophonic.datasets import builtin_dataset, to_presentation

        rng = random.Random(12)
        corpora = [to_presentation(builtin_dataset(n)) for n in ("german", "korean", "turkish")]
        randoms = [random_presentation(random.Random(seed)) for seed in range(100)]
        for p in corpora + randoms:
            verdict, trace = simplify(p, pick=lambda q, candidates: rng.choice(candidates), **limits)
            assert replay(trace, p) == verdict


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

    def test_unresolved_line_ends_with_the_reason(self):
        verdict, _ = simplify(pres(Alphabet("xx", "a"), "a a"))
        assert describe_verdict(verdict) == (
            "verdict: unresolved (1 generators live, 1 relators remain;"
            " no relator with a single-occurrence generator)"
        )

    def test_unresolved_line_without_a_reason(self):
        verdict = Unresolved(pres(Alphabet("xx", "a"), "a a"))
        text = describe_verdict(verdict)
        assert text == "verdict: unresolved (1 generators live, 1 relators remain)"

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
                    if u.counts[g]
                ]
                for w in reduced.relators:
                    if any(w is u for u in p.relators):
                        assert w.counts[g] == 0
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


class TestEveryRelatorIsExactlyAWord:
    """Relators, solutions and final relators are Words, never plain tuple slices."""

    @given(st.integers(0, 2**32 - 1))
    def test_relators_and_solutions_are_words(self, seed):
        rng = random.Random(seed)
        prefix, suffix = random_letters(rng, ABC, 3), random_letters(rng, ABC, 3)
        lhs = Word(prefix + random_letters(rng, ABC, 6) + suffix)
        rhs = Word(prefix + random_letters(rng, ABC, 6) + suffix)
        relator = relator_from_relation(Relation(lhs, rhs))
        assert_exact_word(relator)
        for g, n in relator.counts.items():
            if n == 1:
                assert_exact_word(solve_for(relator, g))

    @pytest.mark.parametrize("name", ["german", "korean", "turkish"])
    def test_every_word_of_a_corpus_trace_is_a_word(self, name):
        from homophonic.datasets import builtin_dataset, to_presentation

        p = to_presentation(builtin_dataset(name))
        _, trace = simplify(p)
        q = normalize(p)
        words = list(q.relators)
        for step in trace.steps:
            q, _ = eliminate(q, step.generator, step.relator_index)
            words += [step.solution, *q.relators]
        words += trace.final.relators
        for x in words:
            assert_exact_word(x)


def record_values() -> dict:
    """One value of each record type, by type name."""
    p = pres(DE, "a b", "b c")
    _, trace = simplify(p)
    return {
        "Provenance": Provenance("word", "ab", "ba", "swap", "made up"),
        "Relation": Relation(w(DE, "a"), w(DE, "b")),
        "EliminationStep": trace.steps[0],
        "EliminationTrace": trace,
        "ExponentMatrix": exponent_matrix(p),
        "AbelianInvariants": abelian_invariants(p),
    }


class TestWhichValuesAreTuples:
    """The records are named tuples; the verdicts are not, so they keep their meaning."""

    @pytest.mark.parametrize(
        "name",
        ["Provenance", "Relation", "EliminationStep", "EliminationTrace", "ExponentMatrix",
         "AbelianInvariants"],
    )
    def test_a_record_is_the_tuple_of_its_fields(self, name):
        record = record_values()[name]
        assert type(record).__name__ == name
        fields = tuple(getattr(record, f) for f in record._fields)
        assert record == fields
        assert hash(record) == hash(fields)
        *head, last = record
        assert (*head, last) == fields
        changed = record._replace(**{record._fields[-1]: "changed"})
        assert type(changed) is type(record)
        assert changed == fields[:-1] + ("changed",)

    def test_records_keep_their_reprs(self):
        step = record_values()["EliminationStep"]
        assert repr(step.provenance) == "Provenance(kind='raw', lhs='a·b', rhs='1', gloss='', ref='')"
        assert repr(step) == (
            "EliminationStep(generator=Generator(id=1, glyph='b', language='de'),"
            " solution=Word(a⁻¹), relator_index=0, provenance=" + repr(step.provenance) + ")"
        )

    def test_trivial_is_not_the_empty_tuple(self):
        assert Trivial() != ()

    def test_free_of_rank_is_not_its_rank_and_basis(self):
        basis = tuple(ABC.generators[:2])
        assert FreeOfRank(2, basis) != (2, basis)

    def test_trivial_is_not_free_of_rank_zero(self):
        assert Trivial() != FreeOfRank(0, ())

    def test_unresolved_equality_ignores_the_reason(self):
        p = pres(ABC, "a a")
        assert Unresolved(p, "round limit reached") == Unresolved(p, "")
        assert Unresolved(p, "") != (p, "")
