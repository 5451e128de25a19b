"""A tour of free-group word arithmetic.

Words over an alphabet multiply by concatenation, and a letter next to
its own inverse cancels.  Everything else in this package is built on
that one rule.
"""

from homophonic import (
    Alphabet,
    Relation,
    concat,
    cyclic_reduce,
    display,
    parse_word,
    relator_from_relation,
)

# The German alphabet plus its extra letters.
german = Alphabet("de", "abcdefghijklmnopqrstuvwxyzäöüß")

# Two words that sound alike: "waage" (scales) and "wage" ((I) dare).
waage = german.word("waage")
wage = german.word("wage")
print("waage  =", display(waage))
print("wage   =", display(wage))

# Declaring them equal makes waage * wage^-1 a relator.  Concatenation
# cancels the shared tail "ge" and the doubled "a" collapses.
product = concat(waage, wage.inverse)
print("waage * wage^-1 =", display(product))

# The relator is conjugate to a single letter: stripping the matching
# outer letters exposes the core.
core, conjugator = cyclic_reduce(product)
print("core =", display(core), " conjugated by", display(conjugator))

# relator_from_relation does the whole pipeline in one call.
relator = relator_from_relation(Relation(waage, wage))
print("relator(waage = wage) =", display(relator))

# Inverses in input text use ^-1; the display uses a superscript.
word = parse_word(german, "k a g^-1")
print("parsed:", display(word), "and inverted:", display(word.inverse))
