import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import from_relators, invariant_factors_by_minors, random_letters
from homophonic.abelianization import (
    AbelianInvariants,
    abelian_invariants,
    certificate_line,
    consistent,
    exponent_matrix,
    smith_normal_form,
)
from homophonic.datasets import builtin_dataset, to_presentation
from homophonic.presentation import (
    FreeOfRank,
    Presentation,
    Provenance,
    Relation,
    Trivial,
    Unresolved,
    simplify,
)
from homophonic.words import Alphabet, Word, cyclic_reduce, parse_word

TR = Alphabet("tr", "bcçdfgğhjklmnprsştvyzaeıioöuü")


def sparse_matrices(max_size):
    """Nonempty integer matrices up to max_size x max_size, about half zeros."""
    entry = st.one_of(st.just(0), st.integers(-20, 20))
    return st.integers(1, max_size).flatmap(
        lambda width: st.lists(
            st.lists(entry, min_size=width, max_size=width), min_size=1, max_size=max_size
        )
    )


def pres(alphabet, *relator_texts):
    return from_relators(alphabet, [parse_word(alphabet, t) for t in relator_texts])


class TestExponentMatrix:
    def test_signed_sums_cancel(self):
        alphabet = Alphabet("xx", "abey")
        p = pres(alphabet, "a b e y e^-1 b^-1")
        m = exponent_matrix(p)
        assert m.rows == ((1, 0, 0, 1),)

    def test_negative_occurrence(self):
        p = pres(TR, "ğ^-1")
        m = exponent_matrix(p)
        row = m.rows[0]
        g_column = m.generator_ids.index(TR.letter("ğ").gen.id)
        assert row[g_column] == -1
        assert all(v == 0 for j, v in enumerate(row) if j != g_column)

    def test_no_relators_no_rows(self):
        p = from_relators(TR, [])
        assert exponent_matrix(p).rows == ()

    @pytest.mark.parametrize("rounds", [1, 3, 10])
    @pytest.mark.parametrize("name", ["german", "korean", "turkish"])
    def test_columns_follow_a_gappy_live_set(self, name, rounds):
        p = to_presentation(builtin_dataset(name))
        final = simplify(p, max_rounds=rounds)[1].final
        ids = sorted(g.id for g in final.live)
        assert ids != list(range(len(ids)))  # eliminations left gaps
        m = exponent_matrix(final)
        assert m.generator_ids == tuple(ids)
        assert len(m.rows) == len(final.relators)
        for row, relator in zip(m.rows, final.relators):
            signed = [sum(sign for g, sign in relator.letters if g.id == i) for i in ids]
            assert list(row) == signed


class TestSmithNormalForm:
    def test_diagonal_two_three(self):
        assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
        assert invariant_factors_by_minors([[2, 0], [0, 3]]) == [1, 6]

    def test_zero_matrix(self):
        assert smith_normal_form([[0, 0], [0, 0]]) == []

    def test_unit(self):
        assert smith_normal_form([[1]]) == [1]

    def test_empty(self):
        assert smith_normal_form([]) == []

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            smith_normal_form([[1, 2], [3]])

    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.data(),
    )
    def test_matches_determinantal_divisors(self, n_rows, n_cols, data):
        matrix = [
            [data.draw(st.integers(-5, 5)) for _ in range(n_cols)]
            for _ in range(n_rows)
        ]
        factors = smith_normal_form(matrix)
        assert factors == invariant_factors_by_minors(matrix)

    @given(st.integers(0, 2**32 - 1))
    def test_divisibility_chain(self, seed):
        rng = random.Random(seed)
        matrix = [
            [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))]
        ]
        width = len(matrix[0])
        for _ in range(rng.randint(0, 4)):
            matrix.append([rng.randint(-9, 9) for _ in range(width)])
        factors = smith_normal_form(matrix)
        assert all(d > 0 for d in factors)
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))

    @pytest.mark.parametrize("entry", [2.5, Fraction(7, 2), "7"], ids=["float", "fraction", "str"])
    def test_non_integral_entry_rejected(self, entry):
        with pytest.raises(TypeError):
            smith_normal_form([[entry]])

    def test_bool_entries_are_integers(self):
        assert smith_normal_form([[True, False], [False, True]]) == [1, 1]

    def test_row_cleared_only_after_its_column(self):
        # Reducing the pivot row first would leave 43 where 49 belongs.
        assert smith_normal_form([[0, 7, 0], [0, 9, 7]]) == [1, 49]

    def test_remainder_left_in_pivot_row(self):
        assert smith_normal_form([[2, 3]]) == [1]
        assert smith_normal_form([[4, 6], [6, 9]]) == [1]

    def test_input_untouched_and_tuples_accepted(self):
        matrix = [[0, 7, 0], [0, 9, 7], [0, 7, 0]]
        assert smith_normal_form(matrix) == [1, 49]
        assert matrix == [[0, 7, 0], [0, 9, 7], [0, 7, 0]]
        assert smith_normal_form(((4, 6), (6, 9))) == [1]

    @given(sparse_matrices(12), st.data())
    def test_depends_only_on_the_row_lattice(self, matrix, data):
        width = len(matrix[0])
        rows = [r for r in matrix for _ in range(data.draw(st.integers(1, 2)))]
        rows = [[-x for x in r] if data.draw(st.booleans()) else r for r in rows]
        rows += [[0] * width] * data.draw(st.integers(0, 2))
        rows = data.draw(st.permutations(rows))
        columns = data.draw(st.permutations(range(width)))
        moved = [[r[c] for c in columns] for r in rows]
        assert smith_normal_form(moved) == smith_normal_form(matrix)

    @settings(max_examples=100, deadline=None)
    @given(sparse_matrices(10))
    def test_matches_sympy(self, matrix):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        form = sympy_snf(sympy.Matrix(matrix), domain=sympy.ZZ)
        diagonal = [abs(int(form[i, i])) for i in range(min(form.shape))]
        assert smith_normal_form(matrix) == [d for d in diagonal if d]


class TestAbelianInvariants:
    def test_torsion_of_square_relator(self):
        alphabet = Alphabet("xx", "a")
        p = pres(alphabet, "a a")
        assert abelian_invariants(p) == AbelianInvariants(0, (2,))

    def test_free_rank_counts_unconstrained_generators(self):
        alphabet = Alphabet("xx", "abc")
        p = pres(alphabet, "a b^-1")
        assert abelian_invariants(p) == AbelianInvariants(2, ())

    @given(st.integers(0, 2**32 - 1))
    def test_repeated_relators_share_a_word_and_one_row(self, seed):
        rng = random.Random(seed)
        alphabet = Alphabet("xx", "abcd"[: rng.randint(1, 4)])
        cores = [cyclic_reduce(Word(random_letters(rng, alphabet, 6)))[0] for _ in range(3)]
        relations = []
        for _ in range(rng.randint(1, 12)):  # repeats, rotations and inverses of a few cores
            w = rng.choice(cores)
            k = rng.randrange(len(w) + 1)
            w = rng.choice([w, Word(w[k:] + w[:k]), w.inverse])
            lhs, rhs = Word(w[:k]), Word(w[k:]).inverse  # fresh words with lhs * rhs^-1 = w
            relations.append(Relation(lhs, rhs, Provenance(ref=str(len(relations)))))
        p = Presentation.from_relations(alphabet, relations)

        full = exponent_matrix(p)
        assert len(full.rows) == len(p.relators)
        factors = smith_normal_form(full.rows)
        expected = (len(p.live) - len(factors), tuple(d for d in factors if d > 1))
        assert abelian_invariants(p) == expected
        first = {}
        assert all(first.setdefault(w, w) is w for w in p.relators)
        copies = [Word(tuple(w)) for w in p.relators]
        unshared = Presentation(alphabet, copies, p.origins, p.live)
        assert unshared == p and hash(unshared) == hash(p) and repr(unshared) == repr(p)
        copied, first = pickle.loads(pickle.dumps(p)), {}
        assert copied == unshared and all(first.setdefault(w, w) is w for w in copied.relators)
        assert pickle.loads(pickle.dumps(unshared)) == p


class TestConsistency:
    def test_trivial_needs_rank_zero(self):
        assert consistent(Trivial(), AbelianInvariants(0, ()))
        assert not consistent(Trivial(), AbelianInvariants(1, ()))
        assert not consistent(Trivial(), AbelianInvariants(0, (2,)))

    def test_free_needs_matching_rank_and_no_torsion(self):
        alphabet = Alphabet("xx", "ab")
        verdict = FreeOfRank(2, alphabet.generators)
        assert consistent(verdict, AbelianInvariants(2, ()))
        assert not consistent(verdict, AbelianInvariants(1, ()))
        assert not consistent(verdict, AbelianInvariants(2, (3,)))

    def test_unresolved_is_always_consistent(self):
        alphabet = Alphabet("xx", "a")
        p = pres(alphabet, "a a")
        verdict, _ = simplify(p)
        assert isinstance(verdict, Unresolved)
        assert consistent(verdict, abelian_invariants(p))

    def test_certificate_line_formats(self):
        alphabet = Alphabet("xx", "a")
        p = pres(alphabet, "a a")
        verdict, _ = simplify(p)
        line = certificate_line(abelian_invariants(p), verdict)
        assert line == "abelianization: free rank 0, torsion [2]; consistent: yes (unresolved)"
        bad = certificate_line(AbelianInvariants(3, ()), Trivial())
        assert bad.endswith("consistent: no")
