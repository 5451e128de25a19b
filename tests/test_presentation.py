import gc
import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import homophonic.presentation
import homophonic.tietze
import homophonic.words
from helpers import (
    assert_exact_word,
    assert_reduced,
    chain_presentation,
    count_oracle,
    cyclic_key_oracle,
    from_relators,
    greedy_pick,
    inverse_oracle,
    oracle_core,
    random_letters,
    random_presentation,
    reduce_oracle,
    reference_eliminate,
    reference_normalize,
    reference_simplify,
    solve_oracle,
    substitute_oracle,
    trace_oracle,
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
    parse_word,
    substitute,
)

DE = Alphabet("de", "abcdefghijklmnopqrstuvwxyzäöüß")
TR = Alphabet("tr", "bcçdfgğhjklmnprsştvyzaeıioöuü")
ABC = Alphabet("xx", "abc")


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

    @pytest.mark.parametrize("lhs, rhs", [("a", "b"), ("ab", "a")])
    def test_sides_of_two_languages_rejected(self, lhs, rhs):
        u, v = Alphabet("de", "ab").word(lhs), Alphabet("tr", "ab").word(rhs)
        for rel in (Relation(u, v), Relation(v, u)):
            with pytest.raises(AlphabetMismatchError):
                relator_from_relation(rel)

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
        reduced, step = eliminate(p, DE.letter("a").gen, 0)
        assert step.solution == EMPTY_WORD
        assert reduced.relators == ()
        assert DE.letter("a").gen not in reduced.live

    def test_solving_rearranges_around_the_occurrence(self):
        p = pres(TR, "a b e y e^-1 b^-1")
        reduced, step = eliminate(p, TR.letter("y").gen, 0)
        assert step.solution == w(TR, "e^-1 b^-1 a^-1 b e")
        # Substituting the solution back into the source relator kills it.
        check = substitute(p.relators[0], TR.letter("y").gen, step.solution)
        assert cyclic_reduce(check)[0] == EMPTY_WORD
        assert reduced.relators == ()

    def test_double_occurrence_is_not_eliminable(self):
        p = pres(DE, "g g")
        with pytest.raises(NotEliminableError):
            eliminate(p, DE.letter("g").gen, 0)

    def test_solve_for_refuses_a_relator_that_is_not_cyclically_reduced(self):
        # A relator from outside a Presentation: g occurs once, but a and a^-1 wrap around.
        alphabet = Alphabet("x", "ag")
        with pytest.raises(NotEliminableError, match="a·g·a⁻¹ is not cyclically reduced"):
            solve_for(parse_word(alphabet, "a g a^-1"), alphabet.letter("g").gen)

    def test_substitution_rewrites_other_relators(self):
        p = pres(DE, "a b^-1", "b c^-1")
        reduced, _ = eliminate(p, DE.letter("b").gen, 0)
        assert reduced.relators == (w(DE, "a c^-1"),)

    def test_relators_made_equal_are_kept_once(self):
        # Eliminating b := a turns c b c b into a second copy of c a c a.
        p = pres(DE, "a b^-1", "c a c a", "c b c b")
        reduced, _ = eliminate(p, DE.letter("b").gen, 0)
        assert reduced.relators == (w(DE, "c a c a"),)
        assert reduced.origins == (p.origins[1],)

    def test_relators_without_the_generator_pass_through(self):
        p = pres(DE, "a b^-1", "c d c d", "b c")
        reduced, _ = eliminate(p, DE.letter("b").gen, 0)
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
        eliminate(p, DE.letter("b").gen, 0)
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
        live = frozenset({abc.letter("a").gen, abc.letter("c").gen})  # b is eliminated
        with pytest.raises(AlphabetMismatchError, match="not over the live generators"):
            Presentation(abc, (w(abc, "a b"),), (Provenance(),), live)

    # Members a b c does not hold: a of another language, the d past its end,
    # and a bare int.
    @pytest.mark.parametrize(
        "extra",
        [Alphabet("tr", "abc").letter("a").gen, Alphabet("de", "abcd").letter("d").gen, 0],
        ids=["negative", "past-the-end", "not-an-id"],
    )
    def test_live_id_that_names_no_generator_rejected(self, extra):
        abc = Alphabet("de", "abc")
        with pytest.raises(ValueError, match="must be generators of the alphabet"):
            Presentation(abc, (), (), (*abc.generators, extra))

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
            Presentation(abc, words, origins, abc.generators)

    @pytest.mark.parametrize(
        "relator",
        [(SignedLetter(ABC[0], 1),), [SignedLetter(ABC[0], 1)], "a"],
        ids=["tuple", "list", "str"],
    )
    def test_relator_that_is_not_a_word_rejected(self, relator):
        relators = (w(ABC, "a b"), relator)
        with pytest.raises(ValueError, match="relator 1 is not a Word"):
            Presentation(ABC, relators, (Provenance(), Provenance()), ABC.generators)

    def test_relator_that_is_not_cyclically_reduced_rejected(self):
        abc = Alphabet("de", "abc")
        live = abc.generators
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

        verdict, trace = simplify(to_presentation(builtin_dataset("german")), **limits)
        assert isinstance(verdict, Unresolved)
        assert trace.reason == reason

    def test_unresolved_reason_without_a_bound(self):
        verdict, trace = simplify(pres(Alphabet("xx", "a"), "a a"))
        assert isinstance(verdict, Unresolved)
        assert trace.reason == "no relator with a single-occurrence generator"

    def test_the_trace_of_a_resolved_run_has_the_no_candidate_reason(self):
        verdict, trace = simplify(pres(DE, "a b^-1"))
        assert isinstance(verdict, FreeOfRank)
        assert trace.reason == "no relator with a single-occurrence generator"

    def test_runs_that_stop_for_different_reasons_give_equal_verdicts(self):
        # c := b⁻¹·a turns c·c·c into a relator of length 6 with no single letter, so
        # the length bound fires on the presentation where the unbounded run stops.
        p = pres(DE, "c a^-1 b", "c c c")
        bounded, bounded_trace = simplify(p, max_relator_len=5)
        unbounded, unbounded_trace = simplify(p)
        assert bounded_trace.reason == "relator length limit exceeded"
        assert unbounded_trace.reason == "no relator with a single-occurrence generator"
        assert bounded_trace.steps == unbounded_trace.steps
        assert isinstance(bounded, Unresolved) and bounded == unbounded

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
        assert verdict == FreeOfRank(2, (abc.letter("a").gen, abc.letter("c").gen))

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


LIMITS = [{}, {"max_rounds": 1}, {"max_rounds": 2}, {"max_relator_len": 4}, {"max_relator_len": 6}]
LIMIT_IDS = ["unbounded", "rounds1", "rounds2", "len4", "len6"]


def corpus_presentations() -> list[Presentation]:
    from homophonic.datasets import builtin_dataset, to_presentation

    return [to_presentation(builtin_dataset(n)) for n in ("german", "korean", "turkish")]


def assert_same_run(got, want) -> None:
    """Equal verdicts of one kind, and equal traces, ``final`` and ``reason`` included."""
    assert type(got[0]) is type(want[0])
    assert got == want


def recording(pick, seen: list):
    """``pick``, noting each presentation and candidate list it is shown."""

    def hook(q, candidates):
        seen.append((q, candidates))
        return pick(q, candidates)

    return hook


def recorded_steps(monkeypatch) -> dict[str, list]:
    """Record what each call of ``normalize`` and ``eliminate`` returns, by name."""
    calls = {"normalize": [], "eliminate": []}
    for name, returned in calls.items():

        def recorder(*args, real=getattr(homophonic.presentation, name), returned=returned):
            returned.append(result := real(*args))
            return result

        monkeypatch.setattr(homophonic.presentation, name, recorder)
    return calls


def assert_rounds_are_eliminate(calls: dict[str, list], run) -> None:
    """The run started with one ``normalize`` and took each step with one ``eliminate``, whose
    last presentation is ``trace.final``; the record is then cleared for the next run."""
    _, trace = run
    (start,), eliminated = calls["normalize"], calls["eliminate"]
    assert [step for _, step in eliminated] == list(trace.steps)
    assert (eliminated[-1][0] if eliminated else start) is trace.final
    for returned in calls.values():
        returned.clear()


class TestWorkingState:
    """``simplify`` takes each round with ``eliminate``, from ``normalize(p)``; the loop that
    builds a checked presentation per round (``reference_simplify``) is its oracle."""

    @pytest.mark.parametrize("limits", LIMITS, ids=LIMIT_IDS)
    def test_simplify_is_the_reference_loop(self, limits, monkeypatch):
        randoms = [random_presentation(random.Random(seed)) for seed in range(300)]
        chains = [chain_presentation(random.Random(seed), 12 + seed % 9) for seed in range(50)]
        calls = recorded_steps(monkeypatch)
        for k, p in enumerate(corpus_presentations() + randoms + chains):
            run = simplify(p, **limits)
            assert_rounds_are_eliminate(calls, run)
            assert_same_run(run, reference_simplify(p, **limits))
            rng = random.Random(k)
            picked = simplify(p, pick=lambda q, c: rng.choice(c), **limits)
            assert_rounds_are_eliminate(calls, picked)

    @pytest.mark.parametrize("limits", LIMITS, ids=LIMIT_IDS)
    def test_a_pick_hook_sees_the_reference_presentations(self, limits):
        randoms = [random_presentation(random.Random(seed)) for seed in range(300, 400)]
        for k, p in enumerate(corpus_presentations() + randoms):
            seen, expected = [], []
            rng, again = random.Random(k), random.Random(k)
            got = simplify(p, pick=recording(lambda q, c: rng.choice(c), seen), **limits)
            want = reference_simplify(
                p, pick=recording(lambda q, c: again.choice(c), expected), **limits
            )
            assert_same_run(got, want)
            assert seen == expected
            assert all(candidates == eliminable(q) for q, candidates in seen)

    def test_a_rebuilt_relator_evicts_a_later_duplicate(self):
        # c = a turns c·b·c·b into a·b·a·b, which relator 2 already is.
        p = pres(DE, "c a^-1", "c b c b", "a b a b")
        verdict, trace = simplify(p)
        assert trace.final.relators == (w(DE, "a b a b"),)
        assert trace.final.origins == (p.origins[1],)
        assert_same_run((verdict, trace), reference_simplify(p))

    def test_a_rebuilt_relator_that_repeats_an_earlier_one_is_dropped(self):
        p = pres(DE, "c a^-1", "a b a b", "c b c b")
        verdict, trace = simplify(p)
        assert trace.final.relators == (w(DE, "a b a b"),)
        assert trace.final.origins == (p.origins[1],)
        assert_same_run((verdict, trace), reference_simplify(p))

    def test_two_rebuilt_relators_that_meet_keep_the_first(self):
        # c = a turns both c·b·a and a·b·c into a·b·a; relator 1 keeps it, with its origin.
        p = pres(DE, "c a^-1", "c b a", "a b c")
        verdict, trace = simplify(p, max_rounds=1)
        assert trace.final.relators == (w(DE, "a b a"),)
        assert trace.final.origins == (p.origins[1],)
        assert_same_run((verdict, trace), reference_simplify(p, max_rounds=1))
        assert_same_run(simplify(p), reference_simplify(p))

    def test_relator_index_is_the_rank_among_the_survivors(self):
        # Round 1 drops relators 0 and 2, so relator 3 is relator 1 in round 2.
        p = pres(DE, "c a^-1", "a b a b", "c b c b", "d a b")
        verdict, trace = simplify(p)
        assert [(s.generator.glyph, s.relator_index) for s in trace.steps] == [("c", 0), ("d", 1)]
        assert trace.steps[1].provenance == p.origins[3]
        assert_same_run((verdict, trace), reference_simplify(p))

    def test_a_long_input_relator_stops_the_run_after_round_one(self):
        p = pres(DE, "b a^-1", "c c c c c")
        verdict, trace = simplify(p, max_relator_len=3)
        assert len(trace.steps) == 1
        assert trace.reason == "relator length limit exceeded"
        assert_same_run((verdict, trace), reference_simplify(p, max_relator_len=3))

    def test_a_long_input_relator_that_round_one_rebuilds_short_does_not(self):
        # c = a turns c·a⁻¹·c·a⁻¹·c into a, which round 2 eliminates.
        p = pres(DE, "c a^-1", "c a^-1 c a^-1 c")
        verdict, trace = simplify(p, max_relator_len=3)
        assert isinstance(verdict, FreeOfRank)
        assert [s.generator.glyph for s in trace.steps] == ["c", "a"]
        assert_same_run((verdict, trace), reference_simplify(p, max_relator_len=3))

    def test_a_pick_hook_receives_the_reference_presentation(self):
        p = pres(DE, "c a^-1", "a b a b", "c b c b", "d a b")
        seen, expected = [], []
        got = simplify(p, pick=recording(greedy_pick, seen))
        assert_same_run(got, reference_simplify(p, pick=recording(greedy_pick, expected)))
        assert seen[1][0].relators == (w(DE, "a b a b"), w(DE, "d a b"))
        assert seen == expected
        assert all(candidates == eliminable(q) for q, candidates in seen)
        assert_same_run(got, simplify(p))

    def test_a_pick_out_of_range_is_refused(self):
        p = pres(DE, "a b^-1", "b c")
        for index in (-1, 2):
            with pytest.raises(NotEliminableError, match=f"no relator at index {index}"):
                simplify(p, pick=lambda q, candidates: (index, candidates[0][1]))
        # ``eliminate`` refuses it, so a choice the round limit stops is never checked.
        verdict, trace = simplify(p, max_rounds=0, pick=lambda q, candidates: (2, candidates[0][1]))
        assert verdict == Unresolved(normalize(p)) and trace.reason == "round limit reached"

    def test_eliminate_gives_what_the_checking_constructor_accepts(self):
        rng = random.Random(37)
        pairs = 0
        for _ in range(300):
            p = random_presentation(rng)
            for index, g in eliminable(p):
                reduced, _ = eliminate(p, g, index)
                fields = (reduced.alphabet, reduced.relators, reduced.origins, reduced.live)
                assert Presentation(*fields) == reduced
                pairs += 1
        assert pairs > 1000, pairs

    def test_eliminate_is_the_reference_elimination(self):
        rng = random.Random(43)
        randoms = [random_presentation(rng, max_relators=8, max_relator_len=6) for _ in range(400)]
        # A rebuilt relator evicts a later duplicate, repeats an earlier one, meets
        # a duplicate that the input already held, or meets another rebuilt relator.
        hand_built = [
            pres(DE, "c a^-1", "c b c b", "a b a b"),
            pres(DE, "c a^-1", "a b a b", "c b c b"),
            pres(DE, "c b c b", "c a^-1", "b a b a", "a b a b"),
            pres(DE, "c a^-1", "c b a", "a b c"),
        ]
        pairs = with_duplicates = 0
        for p in hand_built + randoms:
            deduped = reference_normalize(p)
            assert normalize(p) == deduped
            with_duplicates += len(deduped.relators) < len(p.relators)
            for index, g in eliminable(p):
                assert eliminate(p, g, index) == reference_eliminate(p, g, index)
                pairs += 1
        assert with_duplicates > 50 and pairs > 1000, (with_duplicates, pairs)

    def test_simplify_builds_a_fixed_number_of_presentations(self, monkeypatch):
        from homophonic.datasets import builtin_dataset, to_presentation

        real = Presentation.__init__
        built = []

        def counting(self, *args):
            built.append(sys._getframe(1).f_code.co_name)  # the caller
            real(self, *args)

        monkeypatch.setattr(Presentation, "__init__", counting)
        corpora = []
        for name in ("german", "korean", "turkish"):
            built.clear()
            corpora.append(to_presentation(builtin_dataset(name)))
            assert built == ["from_relations"]  # the relators are checked once, on entry
        calls, rounds = [], []
        for p in corpora:
            built.clear()
            verdict, trace = simplify(p)
            calls.append(len(built))
            rounds.append(len(trace.steps))
            built.clear()
            q = normalize(p)
            for step in trace.steps:
                q, _ = eliminate(q, step.generator, step.relator_index)
            assert q == trace.final and replay(trace, p) == verdict
            assert built == []  # normalize, eliminate and replay build none
        assert calls == [0, 0, 0]  # trace.final is built unchecked too
        assert len(set(rounds)) == 3 and min(rounds) > 1, rounds

    def test_repeated_relators_cost_one_fact_each(self, monkeypatch):
        import homophonic.abelianization
        from homophonic.datasets import LanguageDataset, builtin_dataset, to_presentation
        from homophonic.hangul import LEADS, SyllableDecomposition, compose_syllable

        rng = random.Random(22)
        tails = [(), ("ㄴ",), ("ㅇ",)]

        def syllable(vowel, lead, tail):
            return compose_syllable(SyllableDecomposition(lead, vowel, tail))

        def around():  # up to two syllables whose vowels no confusion touches
            return "".join(syllable(rng.choice("ㅏㅜㅡㅣ"), rng.choice(LEADS), rng.choice(tails))
                           for _ in range(rng.randint(0, 2)))

        records = []
        for k in range(240):  # either vowel confusion, either way round, in varied words
            a, b = [("ㅐ", "ㅔ"), ("ㅓ", "ㅗ"), ("ㅔ", "ㅐ"), ("ㅗ", "ㅓ")][k % 4]
            before, after, lead, tail = around(), around(), rng.choice(LEADS), rng.choice(tails)
            lhs = before + syllable(a, lead, tail) + after
            records.append(Provenance("word", lhs, before + syllable(b, lead, tail) + after))
        dataset = LanguageDataset("ko", builtin_dataset("korean").glyphs, records)

        computed = {"counts": [], "cyclic_key": []}
        for name, calls in computed.items():
            fact = Word.__dict__[name]

            def counting(word, compute=fact.compute, calls=calls):
                calls.append(word)
                return compute(word)

            monkeypatch.setattr(fact, "compute", counting)
        handed = []
        real_snf = homophonic.abelianization.smith_normal_form

        def snf(matrix):
            handed.extend(matrix)
            return real_snf(matrix)

        monkeypatch.setattr(homophonic.abelianization, "smith_normal_form", snf)

        p = to_presentation(dataset)
        verdict, _ = simplify(p)
        invariants = abelian_invariants(p)
        distinct = set(p.relators)
        assert len(p.relators) == 240 and len(distinct) == 4
        for name, calls in computed.items():  # once per distinct relator, not once per record
            assert sorted(w for w in calls if w in distinct) == sorted(distinct), name
        assert len(handed) == 4 and set(handed) == set(exponent_matrix(p).rows)
        assert isinstance(verdict, FreeOfRank) and invariants == (verdict.rank, ())
        assert verdict.rank == len(dataset.glyphs) - 2


def fresh_runs(inputs, **limits) -> list:
    """``simplify`` and ``replay`` on each presentation ``inputs()`` builds afresh, so that no
    word holds a fact from an earlier run."""
    runs = []
    for p in inputs():
        verdict, trace = simplify(p, **limits)
        runs.append((verdict, trace, replay(trace, p)))
    return runs


def counted_keys(monkeypatch) -> list[Word]:
    """The words whose ``cyclic_key`` is computed from now on, in order."""
    fact, computed = Word.__dict__["cyclic_key"], []

    def counting(word, compute=fact.compute):
        computed.append(word)
        return compute(word)

    monkeypatch.setattr(fact, "compute", counting)
    return computed


def one_shape_for_every_word(monkeypatch) -> None:
    """Every relator of a round then meets a kept relator of its shape, so each is keyed."""
    monkeypatch.setattr(Word.__dict__["_shape"], "compute", lambda word: 0)


def shape_oracle(letters) -> tuple:
    """Length and unsigned generator counts, which rotation and inversion keep."""
    gens = {sl.gen for sl in letters}
    return len(letters), tuple(sorted((g.id, count_oracle(letters, g)) for g in gens))


class TestShapeBuckets:
    """A round reads a relator's ``cyclic_key`` only where a kept relator shares its
    ``_shape``; keying every relator, as one shape for all words does, changes no run."""

    @pytest.mark.parametrize("limits", LIMITS, ids=LIMIT_IDS)
    def test_keying_every_relator_changes_no_corpus_run(self, limits, monkeypatch):
        bucketed = fresh_runs(corpus_presentations, **limits)
        keyed = counted_keys(monkeypatch)
        one_shape_for_every_word(monkeypatch)
        assert fresh_runs(corpus_presentations, **limits) == bucketed and keyed
        for p, (verdict, trace, replayed) in zip(corpus_presentations(), bucketed):
            assert_same_run((verdict, trace), reference_simplify(p, **limits))
            assert replayed == verdict

    def test_keying_every_relator_changes_no_random_or_chain_run(self, monkeypatch):
        def inputs():
            randoms = [random_presentation(random.Random(seed)) for seed in range(300)]
            chains = [chain_presentation(random.Random(seed), 12 + seed % 9) for seed in range(50)]
            return randoms + chains

        bucketed = fresh_runs(inputs)
        keyed = counted_keys(monkeypatch)
        one_shape_for_every_word(monkeypatch)
        assert fresh_runs(inputs) == bucketed and len(keyed) > 1000
        for p, (verdict, trace, replayed) in zip(inputs(), bucketed):
            assert_same_run((verdict, trace), reference_simplify(p))
            assert replayed == verdict

    @pytest.mark.parametrize("shapes", ["bucketed", "one shape"])
    def test_hand_cases(self, shapes, monkeypatch):
        if shapes == "one shape":
            one_shape_for_every_word(monkeypatch)
        for texts in (("a b c", "a c b"), ("a b", "a b^-1")):  # one shape, two words
            p = pres(DE, *texts)
            assert normalize(p) == p and len(p.relators) == 2
        p = pres(DE, "a b", "b^-1 a^-1")  # the inverse drops; the first origin stays
        assert normalize(p).relators == (w(DE, "a b"),)
        assert normalize(p).origins == (p.origins[0],)
        ab = w(DE, "a b")  # one ``Word`` twice: the first stays, with its origin
        origins = tuple(Provenance(ref=str(k)) for k in range(3))
        p = Presentation(DE, (ab, w(DE, "c"), ab), origins, DE.generators)
        assert normalize(p).relators == p.relators[:2]
        assert normalize(p).origins == p.origins[:2]
        keyed = "cyclic_key" in vars(p.relators[0])
        assert keyed == (shapes == "one shape")  # met ``c`` if every shape is one

    @pytest.mark.parametrize("limits", [{}, {"max_rounds": 3}, {"max_relator_len": 3}],
                             ids=["unbounded", "rounds3", "len3"])
    def test_no_corpus_run_computes_a_key(self, limits, monkeypatch):
        keyed = counted_keys(monkeypatch)
        runs = fresh_runs(corpus_presentations, **limits)
        assert keyed == [] and all(trace.steps for _, trace, _ in runs)

    def test_a_key_is_computed_only_on_a_shape_collision(self, monkeypatch):
        keyed = counted_keys(monkeypatch)
        real_round, rounds = homophonic.presentation._round, []

        def round_checked(p, g=None, solution=None):
            assert keyed == []  # no key is read outside a round
            q = real_round(p, g, solution)
            entering = [shape_oracle(c) for u in p.relators if (c := oracle_core(
                u if g is None else substitute_oracle(u, g, solution)))]
            kept = {shape_oracle(u) for u in q.relators}
            for word in keyed:  # two words of the round have its shape, and one is kept
                assert entering.count(shape_oracle(word)) > 1 and shape_oracle(word) in kept
            rounds.append(len(keyed))
            keyed.clear()
            return q

        monkeypatch.setattr(homophonic.presentation, "_round", round_checked)
        chains = [chain_presentation(random.Random(seed), 12 + seed % 9) for seed in range(50)]
        randoms = [random_presentation(random.Random(seed)) for seed in range(300)]
        for p in chains + randoms:
            verdict, trace = simplify(p)
            assert replay(trace, p) == verdict
        assert len(rounds) > 1000 and sum(rounds) > 100, (len(rounds), sum(rounds))


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
        trace = EliminationTrace((), p, "no relator with a single-occurrence generator")
        verdict = replay(trace, p)
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
        tampered = trace._replace(steps=(bad_step,) + trace.steps[1:])
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
            replay(trace._replace(steps=steps), p)
        assert err.value.step_index == 1

    def test_first_bad_step_is_named_before_a_later_one(self):
        p = pres(DE, "a", "b a^-1", "c b^-1")
        _, trace = simplify(p)
        first, second, third = trace.steps
        bad_solution = first._replace(solution=concat(first.solution, w(DE, "z")))
        bad_index = third._replace(relator_index=99)
        with pytest.raises(TraceInvalidError) as err:
            replay(trace._replace(steps=(bad_solution, second, bad_index)), p)
        assert err.value.step_index == 0

    def test_forged_final_presentation_detected(self):
        from homophonic.datasets import builtin_dataset, to_presentation

        p = to_presentation(builtin_dataset("german"))
        _, trace = simplify(p, max_rounds=3)
        final = trace.final
        forged = Presentation(final.alphabet, final.relators[:1], final.origins[:1], final.live)
        with pytest.raises(TraceInvalidError) as err:
            replay(trace._replace(final=forged), p)
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
            replay(trace._replace(steps=steps), p)
        assert err.value.step_index == len(trace.steps)

    @pytest.mark.parametrize("field", ["relator_index", "solution", "provenance", "generator"])
    def test_a_step_with_one_field_changed_is_rejected_at_that_step(self, field):
        def changed(step, live, rng):
            if field == "relator_index":
                return step._replace(relator_index=step.relator_index + 1)
            if field == "solution":
                extra = Word((SignedLetter(rng.choice(live), rng.choice((1, -1))),))
                return step._replace(solution=concat(step.solution, extra))
            if field == "provenance":
                return step._replace(provenance=Provenance(lhs="forged", rhs="1"))
            others = [h for h in live if h != step.generator]
            return step._replace(generator=rng.choice(others)) if others else None

        rejected = 0
        for seed in range(300):
            rng = random.Random(seed)
            p = random_presentation(rng)
            _, trace = simplify(p)
            if not trace.steps:
                continue
            k = rng.randrange(len(trace.steps))
            dead = {step.generator for step in trace.steps[:k]}
            live = tuple(h for h in p.live if h not in dead)
            bad = changed(trace.steps[k], live, rng)
            if bad is None:
                continue
            steps = trace.steps[:k] + (bad,) + trace.steps[k + 1 :]
            with pytest.raises(TraceInvalidError) as err:
                replay(trace._replace(steps=steps), p)
            assert err.value.step_index == k, (seed, err.value)
            rejected += 1
        assert rejected >= 100

    def test_replay_of_a_round_stopped_trace_is_exactly_the_verdict(self):
        from homophonic.datasets import builtin_dataset, to_presentation

        p = to_presentation(builtin_dataset("german"))
        verdict, trace = simplify(p, max_rounds=3)
        replayed = replay(trace, p)
        assert trace.reason == "round limit reached"
        assert type(replayed) is Unresolved
        assert replayed == verdict and hash(replayed) == hash(verdict)
        assert replayed.__reduce__() == verdict.__reduce__()  # every field, shown or compared

    # On German's greedy trace no two adjacent steps commute, so a dropped or
    # swapped step is caught at its own index.
    def test_a_dropped_step_is_rejected_at_its_index(self):
        from homophonic.datasets import builtin_dataset, to_presentation

        p = to_presentation(builtin_dataset("german"))
        _, trace = simplify(p)
        for k in range(len(trace.steps)):
            steps = trace.steps[:k] + trace.steps[k + 1 :]
            with pytest.raises(TraceInvalidError) as err:
                replay(trace._replace(steps=steps), p)
            assert err.value.step_index == k

    def test_two_swapped_steps_are_rejected_at_the_first(self):
        from homophonic.datasets import builtin_dataset, to_presentation

        p = to_presentation(builtin_dataset("german"))
        _, trace = simplify(p)
        for k in range(len(trace.steps) - 1):
            steps = trace.steps[:k] + (trace.steps[k + 1], trace.steps[k]) + trace.steps[k + 2 :]
            with pytest.raises(TraceInvalidError) as err:
                replay(trace._replace(steps=steps), p)
            assert err.value.step_index == k

    def test_a_negative_relator_index_is_rejected(self):
        # c is solved from the last relator, which index -1 also names in Python.
        p = pres(ABC, "a b", "c")
        _, trace = simplify(p)
        assert trace.steps[0].relator_index == len(p.relators) - 1
        steps = (trace.steps[0]._replace(relator_index=-1),) + trace.steps[1:]
        with pytest.raises(TraceInvalidError, match="is not eliminable") as err:
            replay(trace._replace(steps=steps), p)
        assert err.value.step_index == 0

    def test_a_generator_eliminated_earlier_is_rejected(self):
        from homophonic.datasets import builtin_dataset, to_presentation

        p = to_presentation(builtin_dataset("german"))
        _, trace = simplify(p)
        for k in range(1, len(trace.steps)):
            bad = trace.steps[k]._replace(generator=trace.steps[k - 1].generator)
            steps = trace.steps[:k] + (bad,) + trace.steps[k + 1 :]
            with pytest.raises(TraceInvalidError, match="is not eliminable") as err:
                replay(trace._replace(steps=steps), p)
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


class TestTraceOracle:
    """``trace_oracle`` checks a trace step by step with the oracles alone, sharing no
    code with ``simplify``, ``eliminate`` or ``replay``."""

    @pytest.mark.parametrize(
        "limits",
        [{}, {"max_rounds": 1}, {"max_rounds": 3}, {"max_relator_len": 4}, {"max_relator_len": 6}],
        ids=["unbounded", "rounds1", "rounds3", "len4", "len6"],
    )
    def test_the_corpus_traces_pass(self, limits):
        for p in corpus_presentations():
            verdict, trace = simplify(p, **limits)
            trace_oracle(p, trace, verdict)

    def test_random_presentations_pass(self):
        for seed in range(300):
            p = random_presentation(random.Random(seed))
            verdict, trace = simplify(p)
            trace_oracle(p, trace, verdict)

    def test_random_picks_on_the_corpora_pass(self):
        rng = random.Random(20)
        for p in corpus_presentations():
            for _ in range(20):
                verdict, trace = simplify(p, pick=lambda q, candidates: rng.choice(candidates))
                trace_oracle(p, trace, verdict)

    def test_a_dropped_step_fails(self):
        p = corpus_presentations()[0]
        verdict, trace = simplify(p)
        for k in range(len(trace.steps)):
            steps = trace.steps[:k] + trace.steps[k + 1 :]
            with pytest.raises(AssertionError):
                trace_oracle(p, trace._replace(steps=steps), verdict)

    def test_a_solution_with_a_live_letter_appended_fails(self):
        p = corpus_presentations()[0]
        verdict, trace = simplify(p)
        live, tampered = set(p.live), 0
        for k, step in enumerate(trace.steps):
            live.discard(step.generator)
            tail = step.solution[-1:]
            others = [h for h in sorted(live) if tail != (SignedLetter(h, -1),)]
            if not others:
                continue
            letter = Word([SignedLetter(others[0], 1)])
            bad = step._replace(solution=concat(step.solution, letter))
            steps = trace.steps[:k] + (bad,) + trace.steps[k + 1 :]
            with pytest.raises(AssertionError, match=f"step {k}:"):
                trace_oracle(p, trace._replace(steps=steps), verdict)
            tampered += 1
        assert tampered == len(trace.steps) - 1  # the last step leaves no other live letter

    def test_a_basis_missing_a_generator_fails(self):
        p = corpus_presentations()[2]
        verdict, trace = simplify(p)
        assert isinstance(verdict, FreeOfRank)
        for k in range(verdict.rank):
            basis = verdict.basis[:k] + verdict.basis[k + 1 :]
            with pytest.raises(AssertionError, match="basis"):
                trace_oracle(p, trace, FreeOfRank(len(basis), basis))

    def test_a_swap_that_solves_a_rewritten_relator_first_fails(self):
        swaps = 0
        for p in corpus_presentations():
            verdict, trace = simplify(p)
            q = normalize(p)
            for k in range(len(trace.steps) - 1):
                first, second = trace.steps[k], trace.steps[k + 1]
                before = {cyclic_key_oracle(r) for r in q.relators}
                q, _ = eliminate(q, first.generator, first.relator_index)
                solved = [SignedLetter(second.generator, 1)] + inverse_oracle(second.solution)
                if cyclic_key_oracle(solved) in before:
                    continue  # the second step's relator was not rewritten by the first
                steps = trace.steps[:k] + (second, first) + trace.steps[k + 2 :]
                with pytest.raises(AssertionError, match=f"step {k}:"):
                    trace_oracle(p, trace._replace(steps=steps), verdict)
                swaps += 1
        assert swaps > 10, swaps


@pytest.fixture(scope="module")
def runs() -> list[tuple]:
    """(p, verdict, trace) for the corpora under each of ``LIMITS``, 300 random presentations,
    20 random picks per corpus and 50 chain presentations."""
    runs = [(p, *simplify(p, **limits)) for limits in LIMITS for p in corpus_presentations()]
    runs += [(p, *simplify(p)) for p in map(random_presentation, map(random.Random, range(300)))]
    rng = random.Random(20)
    for p in corpus_presentations():
        runs += [(p, *simplify(p, pick=lambda q, c: rng.choice(c))) for _ in range(20)]
    chains = [chain_presentation(random.Random(seed), 12 + seed % 9) for seed in range(50)]
    return runs + [(p, *simplify(p)) for p in chains]


def replay_outcome(trace, p):
    """The verdict ``replay`` gives, or the step index and message of its refusal."""
    try:
        return replay(trace, p)
    except TraceInvalidError as err:
        return err.step_index, str(err)


def with_step(trace, k, *new):
    """``trace`` with ``new`` for its step ``k``; with nothing, the step is dropped."""
    return trace._replace(steps=trace.steps[:k] + new + trace.steps[k + 1 :])


def one_change_away(p, trace, rng) -> list:
    """Traces with one change at a random step: the step dropped, swapped with the next, given
    another relator index or a forged provenance, or its solution with a live letter appended."""
    steps = trace.steps
    if not steps:
        return []
    k = rng.randrange(len(steps))
    step = steps[k]
    live = [h for h in p.live if h not in {s.generator for s in steps[: k + 1]}]
    changed = [step._replace(relator_index=step.relator_index + 1),
               step._replace(provenance=Provenance(lhs="forged", rhs="1"))]
    if live:
        extra = Word([SignedLetter(rng.choice(live), rng.choice((1, -1)))])
        changed.append(step._replace(solution=concat(step.solution, extra)))
    swapped = trace._replace(steps=steps[:k] + steps[k + 1 : k + 2] + (step,) + steps[k + 2 :])
    variants = [with_step(trace, k), swapped, *(with_step(trace, k, bad) for bad in changed)]
    return [t for t in variants if t.steps != steps]


class TestTietzeChecker:
    """``replay`` checks a trace with ``homophonic.tietze``, on int words, and runs none of the
    simplifier; ``trace_oracle`` and a bucket shared by every relator check it."""

    def test_replay_and_the_trace_oracle_accept_the_same_traces(self, runs):
        for p, verdict, trace in runs:
            assert replay(trace, p) == verdict
            trace_oracle(p, trace, verdict)

    def test_a_trace_replay_accepts_passes_the_trace_oracle(self, runs):
        rng, refused = random.Random(5), 0
        for p, _, trace in runs:
            for changed in one_change_away(p, trace, rng):
                outcome = replay_outcome(changed, p)
                if isinstance(outcome, tuple):
                    refused += 1
                else:  # a swap of two steps that commute would be one; these seeds have none
                    trace_oracle(p, changed, outcome)
        assert refused > 1500, refused

    def test_replay_runs_none_of_the_simplifier(self, runs, monkeypatch):
        def refuse(*args):
            raise AssertionError("replay ran the simplifier")

        for name in ("eliminate", "normalize", "_round", "solve_for", "substitute",
                     "cyclic_reduce"):
            monkeypatch.setattr(homophonic.presentation, name, refuse)
        for name in ("substitute", "cyclic_reduce"):
            monkeypatch.setattr(homophonic.words, name, refuse)
        for name in ("counts", "_shape", "cyclic_key", "inverse"):  # cached ones too
            monkeypatch.setattr(Word, name, property(refuse))
        for p, verdict, trace in runs:
            assert replay(trace, p) == verdict

    def test_one_bucket_for_every_relator_changes_no_outcome(self, runs, monkeypatch):
        rng, traces = random.Random(6), []
        for p, _, trace in runs:
            traces += [(p, t) for t in (trace, *one_change_away(p, trace, rng))]
        bucketed = [replay_outcome(t, p) for p, t in traces]
        keyed, real_key = [], homophonic.tietze._key
        monkeypatch.setattr(homophonic.tietze, "_bucket", lambda r: 0)
        monkeypatch.setattr(homophonic.tietze, "_key", lambda r: keyed.append(r) or real_key(r))
        assert [replay_outcome(t, p) for p, t in traces] == bucketed
        assert len(keyed) > 10_000, len(keyed)

    def test_the_oracles_tampered_traces_are_refused_at_their_step(self):
        # TestReplay refuses the oracle's dropped steps; this takes its appended letter and swap.
        german = corpus_presentations()[0]
        _, trace = simplify(german)
        live = set(german.live)
        for k, step in enumerate(trace.steps):
            live.discard(step.generator)
            others = [h for h in sorted(live) if step.solution[-1:] != (SignedLetter(h, -1),)]
            if others:
                letter = Word([SignedLetter(others[0], 1)])
                bad = step._replace(solution=concat(step.solution, letter))
                with pytest.raises(TraceInvalidError) as err:
                    replay(with_step(trace, k, bad), german)
                assert err.value.step_index == k
        swaps = 0
        for p in corpus_presentations():
            _, trace = simplify(p)
            q = normalize(p)
            for k in range(len(trace.steps) - 1):
                first, second = trace.steps[k], trace.steps[k + 1]
                before = {cyclic_key_oracle(r) for r in q.relators}
                q, _ = eliminate(q, first.generator, first.relator_index)
                solved = [SignedLetter(second.generator, 1)] + inverse_oracle(second.solution)
                if cyclic_key_oracle(solved) in before:
                    continue
                steps = trace.steps[:k] + (second, first) + trace.steps[k + 2 :]
                with pytest.raises(TraceInvalidError) as err:
                    replay(trace._replace(steps=steps), p)
                assert err.value.step_index == k
                swaps += 1
        assert swaps > 10, swaps

    def test_a_trace_over_a_same_glyph_alphabet_of_another_language_is_refused(self):
        korean = corpus_presentations()[1]
        other = Alphabet("other", [g.glyph for g in korean.alphabet])

        def moved(word):
            return Word([SignedLetter(other[sl.gen.id], sl.sign) for sl in word])

        moved_solutions = 0
        for limits in ({"max_rounds": 3}, {}):
            _, trace = simplify(korean, **limits)
            steps = trace.steps
            for k, step in enumerate(steps):
                bad = [step._replace(generator=other[step.generator.id])]
                if step.solution:
                    bad.append(step._replace(solution=moved(step.solution)))
                for changed in bad:
                    with pytest.raises(TraceInvalidError) as err:
                        replay(with_step(trace, k, changed), korean)
                    assert err.value.step_index == k
                moved_solutions += len(bad) - 1
            final = trace.final  # free of rank 2, or unresolved with relators left
            forged = Presentation(other, tuple(map(moved, final.relators)), final.origins,
                                  tuple(other[g.id] for g in final.live))
            with pytest.raises(TraceInvalidError) as err:
                replay(trace._replace(final=forged), korean)
            assert err.value.step_index == len(steps)
        assert moved_solutions == 13, moved_solutions


class TestVerdictText:
    def test_trivial_line(self):
        from homophonic.datasets import builtin_dataset, to_presentation

        verdict, trace = simplify(to_presentation(builtin_dataset("german")))
        assert len(trace.steps) == 30
        assert describe_verdict(verdict, trace) == "verdict: trivial (30 generators eliminated)"

    def test_free_line_lists_basis(self):
        alphabet = Alphabet("xx", "ab")
        verdict, trace = simplify(from_relators(alphabet, []))
        assert verdict == FreeOfRank(2, alphabet.generators)
        assert describe_verdict(verdict, trace) == "verdict: free of rank 2; basis: a b"

    def test_unresolved_line(self):
        p = pres(DE, "a a")
        verdict, trace = simplify(p)
        text = describe_verdict(verdict, trace)
        assert text.startswith("verdict: unresolved (")

    def test_unresolved_line_ends_with_the_reason(self):
        verdict, trace = simplify(pres(Alphabet("xx", "a"), "a a"))
        assert describe_verdict(verdict, trace) == (
            "verdict: unresolved (1 generators live, 1 relators remain;"
            " no relator with a single-occurrence generator)"
        )

    def test_unresolved_line_without_a_reason(self):
        verdict, trace = simplify(pres(Alphabet("xx", "a"), "a a"))
        text = describe_verdict(verdict, trace._replace(reason=""))
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

    def test_eliminate_drops_only_its_generator_from_the_live_tuple(self):
        rng = random.Random(31)
        for _ in range(300):
            p = random_presentation(rng)
            assert normalize(p).live == p.live
            for index, g in eliminable(p):
                live = eliminate(p, g, index)[0].live
                assert type(live) is tuple
                assert live == tuple(h for h in p.live if h != g)
                assert live == tuple(sorted(live, key=lambda h: h.id))

    def test_a_corpus_verdicts_basis_is_the_final_live_tuple(self):
        for p in corpus_presentations():
            verdict, trace = simplify(p)
            assert not isinstance(verdict, Unresolved)
            basis = verdict.basis if isinstance(verdict, FreeOfRank) else ()
            assert basis == trace.final.live

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
                assert_exact_word(solution := solve_for(relator, g))
                assert_reduced(solution)

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


class TestSolutionFacts:
    """A solution is never counted; an inverted one carries the word it was inverted from
    as its ``inverse``, and that word holds no reference back."""

    def test_an_inverted_solution_carries_the_rest_of_its_relator(self):
        b = DE.letter("b").gen
        solution = solve_for(w(DE, "a b c"), b)  # b = (c a)^-1
        assert solution == w(DE, "a^-1 c^-1")
        assert vars(solution) == {"inverse": w(DE, "c a")}
        assert vars(solution.inverse) == {}
        assert vars(solve_for(w(DE, "a b^-1 c"), b)) == {}  # b = c a, not inverted

    def test_solutions_of_simplify_and_replay_are_not_counted(self, monkeypatch):
        solutions = []
        real = homophonic.presentation.solve_for

        def recording(relator, g):
            solutions.append(solution := real(relator, g))
            return solution

        monkeypatch.setattr(homophonic.presentation, "solve_for", recording)
        randoms = [random_presentation(random.Random(seed)) for seed in range(300)]
        steps = 0
        for p in corpus_presentations() + randoms:
            verdict, trace = simplify(p)
            assert replay(trace, p) == verdict
            steps += len(trace.steps)
        assert len(solutions) == steps > 0  # replay solves on int words, with no ``Word``
        assert any("inverse" in vars(x) for x in solutions)
        for solution in solutions:
            assert "counts" not in vars(solution)
            assert solution.inverse == Word(inverse_oracle(solution))
            assert "inverse" not in vars(solution.inverse)

    def test_simplify_and_replay_leave_no_cyclic_garbage(self):
        presentations = corpus_presentations()
        gc.collect()
        gc.disable()
        try:
            for p in presentations:
                verdict, trace = simplify(p)
                assert replay(trace, p) == verdict
            del verdict, trace
            assert gc.collect() == 0
        finally:
            gc.enable()


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

    def test_unresolved_equality_is_by_the_remaining_presentation(self):
        p = pres(ABC, "a a")
        assert Unresolved(p) == Unresolved(pres(ABC, "a a"))
        assert Unresolved(p) != Unresolved(pres(ABC, "b b"))
        assert Unresolved(p) != (p,)
