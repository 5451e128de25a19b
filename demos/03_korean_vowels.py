"""Korean: the consonants die, two vowels survive.

Korean word pairs only make sense after syllables are flattened to jamo,
so ingestion runs through the Hangul codec.  The quotient ends up free
on exactly two vowels.
"""

from homophonic import (
    FreeOfRank,
    abelian_invariants,
    builtin_dataset,
    certificate_line,
    decompose_text,
    describe_verdict,
    simplify,
    to_presentation,
)

dataset = builtin_dataset("korean")

# A taste of ingestion: both sides of a pair, flattened to jamo.
for word in ("안일하다", "아닐하다"):
    print(word, "->", "+".join(decompose_text(word)))

presentation = to_presentation(dataset)
print(f"\n{len(dataset.glyphs)} characters, {len(dataset.records)} relations")

verdict, trace = simplify(presentation)
print(describe_verdict(verdict, trace))
print(certificate_line(abelian_invariants(presentation), verdict))

assert isinstance(verdict, FreeOfRank)
survivors = {g.glyph for g in verdict.basis}
print("\nsurviving characters:", " ".join(sorted(survivors)))

# Each consonant went to the identity; show the first few solutions.
print("\nfirst five eliminations:")
for step in trace.steps[:5]:
    print(f"  {step.generator.glyph} eliminated by {step.provenance.witness()}")
