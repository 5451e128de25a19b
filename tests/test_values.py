"""Values that are not tuples, and copying and pickling of every value.

``Presentation``, the three verdicts, ``LanguageDataset`` and
``SyllableDecomposition`` are immutable, compare and hash by their compared
fields, show themselves as a dataclass would, and match positionally.  A value
given lists stores tuples, and a presentation stores its live generators, given as
any iterable, as a tuple in id order.  Every
value, ``Word`` and the named tuples that hold words included, survives
``copy.copy``, ``copy.deepcopy`` and a pickle round trip.
"""

import copy
import os
import pickle
import subprocess
import sys

import pytest

from homophonic.datasets import (
    LanguageDataset,
    builtin_dataset,
    parse_dataset,
    serialize_dataset,
    to_presentation,
)
from homophonic.hangul import SyllableDecomposition
from homophonic.presentation import (
    FreeOfRank,
    Presentation,
    Provenance,
    Trivial,
    Unresolved,
    simplify,
)
from homophonic.words import Alphabet, parse_word

XY = Alphabet("x", "ab")
SMALL = "@language x\n@alphabet a b\nraw\ta\tb\tg\tr\n"


def small_presentation() -> Presentation:
    """⟨a, b | a²⟩ with b already eliminated."""
    return Presentation(XY, (parse_word(XY, "a a"),), (Provenance(),), (XY[0],))


def make(name: str):
    """A freshly built value of the named class; two calls give equal values."""
    return {
        "Presentation": small_presentation,
        "Trivial": Trivial,
        "FreeOfRank": lambda: FreeOfRank(2, (XY[0], XY[1])),
        "Unresolved": lambda: Unresolved(small_presentation()),
        "LanguageDataset": lambda: parse_dataset(SMALL),
        "SyllableDecomposition": lambda: SyllableDecomposition("ㄷ", "ㅏ", ["ㄹ", "ㄱ"]),
    }[name]()


FIELDS = {
    "Presentation": ("alphabet", "relators", "origins", "live"),
    "Trivial": (),
    "FreeOfRank": ("rank", "basis"),
    "Unresolved": ("remaining",),
    "LanguageDataset": ("language", "glyphs", "records"),
    "SyllableDecomposition": ("lead", "vowel", "tail"),
}
NAMES = list(FIELDS)

# The strings these classes showed as frozen dataclasses.
GEN_A = "Generator(id=0, glyph='a', language='x')"
GEN_B = "Generator(id=1, glyph='b', language='x')"
PRESENTATION = (
    "Presentation(alphabet=Alphabet('x', 2 generators), relators=(Word(a·a),),"
    " origins=(Provenance(kind='raw', lhs='', rhs='', gloss='', ref=''),),"
    f" live=({GEN_A},))"
)
REPRS = {
    "Presentation": PRESENTATION,
    "Trivial": "Trivial()",
    "FreeOfRank": f"FreeOfRank(rank=2, basis=({GEN_A}, {GEN_B}))",
    "Unresolved": f"Unresolved(remaining={PRESENTATION})",
    "LanguageDataset": (
        "LanguageDataset(language='x', glyphs=('a', 'b'),"
        " records=(Provenance(kind='raw', lhs='a', rhs='b', gloss='g', ref='r'),))"
    ),
    "SyllableDecomposition": "SyllableDecomposition(lead='ㄷ', vowel='ㅏ', tail=('ㄹ', 'ㄱ'))",
}


def positional(value) -> tuple:
    """The fields a class pattern binds by position."""
    match value:
        case Presentation(alphabet, relators, origins, live):
            return alphabet, relators, origins, live
        case Trivial():
            return ()
        case FreeOfRank(rank, basis):
            return rank, basis
        case Unresolved(remaining):
            return (remaining,)
        case LanguageDataset(language, glyphs, records):
            return language, glyphs, records
        case SyllableDecomposition(lead, vowel, tail):
            return lead, vowel, tail
    raise AssertionError(f"no pattern matched {value!r}")


class TestValueContracts:
    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("attr", ["field", "extra"])
    def test_attributes_cannot_be_assigned_or_deleted(self, name, attr):
        value = make(name)
        names = FIELDS[name] if attr == "field" else ("extra",)
        for field in names:
            with pytest.raises(AttributeError):
                setattr(value, field, 1)
            with pytest.raises(AttributeError):
                delattr(value, field)
        assert repr(value) == REPRS[name]

    @pytest.mark.parametrize("name", NAMES)
    def test_equal_values_hash_equal_and_are_not_tuples(self, name):
        first, again = make(name), make(name)
        assert first is not again
        assert first == again
        assert hash(first) == hash(again)
        assert first != tuple(getattr(first, f) for f in FIELDS[name])

    @pytest.mark.parametrize("name", NAMES)
    def test_repr_is_the_dataclass_form(self, name):
        assert repr(make(name)) == REPRS[name]

    @pytest.mark.parametrize("name", NAMES)
    def test_class_patterns_match_by_position(self, name):
        value = make(name)
        assert type(value).__match_args__ == FIELDS[name]
        assert positional(value) == tuple(getattr(value, f) for f in FIELDS[name])

    @pytest.mark.parametrize("name", ["Trivial", "FreeOfRank", "Unresolved"])
    def test_a_verdict_compares_by_all_of_its_fields(self, name):
        assert type(make(name))._compared == FIELDS[name]

    def test_the_constructors_keep_their_defaults(self):
        assert SyllableDecomposition("ㄱ", "ㅏ").tail == ()

    @pytest.mark.parametrize("name", NAMES)
    def test_a_wrong_number_of_fields_is_a_type_error(self, name):
        wrong = {
            "Presentation": lambda: Presentation(XY),
            "Trivial": lambda: Trivial(1),
            "FreeOfRank": lambda: FreeOfRank(1, (), 2),
            "Unresolved": lambda: Unresolved(small_presentation(), "round limit reached"),
            "LanguageDataset": lambda: LanguageDataset("de"),
            "SyllableDecomposition": lambda: SyllableDecomposition("ㄱ"),
        }[name]
        with pytest.raises(TypeError):
            wrong()


def built_from(seq, live) -> list:
    """One value of each class with sequence fields, its sequences built by ``seq``
    and its live generators by ``live``."""
    p = Presentation(XY, seq([parse_word(XY, "a a")]), seq([Provenance()]), live({XY[0]}))
    record = Provenance("raw", "a", "b", "g", "r")
    return [
        p,
        Unresolved(p),
        FreeOfRank(2, seq([XY[0], XY[1]])),
        LanguageDataset("x", seq(["a", "b"]), seq([record])),
        SyllableDecomposition("ㄷ", "ㅏ", seq(["ㄹ", "ㄱ"])),
    ]


class TestListFields:
    """Fields given as lists are stored as tuples, and live generators given as a set
    as the tuple in id order, so the value is the one built from tuples."""

    def test_list_built_values_equal_and_hash_like_tuple_built_ones(self):
        for listed, tupled in zip(built_from(list, set), built_from(tuple, tuple)):
            assert listed == tupled
            assert hash(listed) == hash(tupled)
            assert repr(listed) == repr(tupled)
            for field, want in zip(positional(listed), positional(tupled)):
                assert type(field) is type(want)

    def test_a_list_built_dataset_survives_the_text_round_trip(self):
        dataset = built_from(list, set)[3]
        assert parse_dataset(serialize_dataset(dataset)) == dataset


# Prints the reprs of a presentation and of a verdict with many live generators.
MANY_LIVE = """
from homophonic.datasets import builtin_dataset, to_presentation
from homophonic.presentation import simplify
p = to_presentation(builtin_dataset("turkish"))
print(repr(p))
print(repr(simplify(p, max_rounds=3)[0]))
"""


class TestStableRepr:
    """A presentation holds its live generators as a tuple in id order, so its ``repr``
    does not follow the hash seed."""

    def test_live_generators_show_in_id_order(self):
        p = to_presentation(builtin_dataset("turkish"))
        assert len(p.live) > 2
        in_order = tuple(sorted(p.live, key=lambda g: g.id))
        assert p.live == in_order
        shown = ", ".join(repr(g) for g in in_order)
        assert repr(p).endswith(f", live=({shown}))")

    def test_no_live_generator_shows_an_empty_tuple(self):
        p = Presentation(XY, (), (), frozenset())
        assert p.live == ()
        assert repr(p) == (
            "Presentation(alphabet=Alphabet('x', 2 generators), relators=(), origins=(),"
            " live=())"
        )

    @pytest.mark.parametrize(
        "given",
        [set, list, lambda gens: tuple(reversed(gens)), lambda gens: (*gens, gens[0])],
        ids=["set", "list", "reversed", "repeat"],
    )
    def test_live_given_in_any_form_is_the_id_ordered_tuple(self, given):
        p = to_presentation(builtin_dataset("german"))
        gens = [p.alphabet[i] for i in (4, 0, 7, 2)]
        built = Presentation(p.alphabet, (), (), given(gens))
        want = Presentation(p.alphabet, (), (), tuple(sorted(gens, key=lambda g: g.id)))
        assert built.live == want.live == (gens[1], gens[3], gens[0], gens[2])
        assert type(built.live) is tuple
        assert built == want
        assert hash(built) == hash(want)
        assert repr(built) == repr(want)

    def test_repr_is_the_same_under_three_hash_seeds(self):
        shown = {
            subprocess.run(
                [sys.executable, "-c", MANY_LIVE],
                env={**os.environ, "PYTHONHASHSEED": seed},
                capture_output=True, text=True, check=True, timeout=60,
            ).stdout
            for seed in ("1", "2", "3")
        }
        assert len(shown) == 1
        assert "Unresolved(remaining=Presentation(" in shown.pop()


def a_word():
    """A word whose cached facts, ``counts`` among them, are already read."""
    word = parse_word(XY, "a b a^-1")
    word.counts, word.cyclic_key, word.inverse
    return word


def copied_values() -> dict:
    """One value of each kind, with every cached fact of its words already read."""
    german = to_presentation(builtin_dataset("german"))
    trivial, trace = simplify(german)
    free, _ = simplify(to_presentation(builtin_dataset("korean")))
    unresolved, _ = simplify(small_presentation())
    return {
        "Word": a_word(),
        "Presentation": german,
        "EliminationTrace": trace,
        "Trivial": trivial,
        "FreeOfRank": free,
        "Unresolved": unresolved,
        "LanguageDataset": builtin_dataset("korean"),
        "SyllableDecomposition": SyllableDecomposition("ㄷ", "ㅏ", ("ㄹ", "ㄱ")),
    }


COPIERS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


class TestCopyAndPickle:
    @pytest.mark.parametrize("copier", list(COPIERS))
    @pytest.mark.parametrize("name", ["Word", "EliminationTrace"] + NAMES)
    def test_round_trip_gives_an_equal_value(self, name, copier):
        value = copied_values()[name]
        assert type(value).__name__ == name
        copied = COPIERS[copier](value)
        assert type(copied) is type(value)
        assert copied == value

    def test_a_copied_word_counts_again(self):
        word = a_word()
        copied = pickle.loads(pickle.dumps(word))
        assert copied.counts == word.counts
        assert copied.inverse == word.inverse

    @pytest.mark.parametrize("name", NAMES + ["Word"])
    def test_a_value_is_rebuilt_through_its_constructor(self, name):
        value = a_word() if name == "Word" else make(name)
        cls, args = value.__reduce__()
        assert cls is type(value)
        assert cls(*args) == value
