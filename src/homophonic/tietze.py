"""Elimination traces checked as Tietze moves on tuples of ±(id+1) ints.  This imports nothing,
so it shares no code with the simplifier: it reduces, and drops repeats, by itself."""


def _bucket(r):
    """What rotation and inversion keep of ``r``: its length and the generators it holds."""
    return len(r), frozenset(map(abs, r))


def _key(r):
    """The least rotation of ``r`` or of its inverse."""
    inverse = tuple([-x for x in reversed(r)])
    return min(v[k:] + v[:k] for v in (r, inverse) for k in range(len(v)))


def _first_of_each(entries):
    """The (bucket, relator, origin) entries whose relator is nonempty and there first up to
    rotation and inversion; only relators that share a bucket are keyed."""
    seen, kept = {}, []  # bucket: its first entry, or once another meets it, the keys kept
    for entry in [entry for entry in entries if entry[1]]:
        if (keys := seen.setdefault(entry[0], entry)) is not entry:
            if type(keys) is tuple:
                keys = seen[entry[0]] = {_key(keys[1])}
            if (key := _key(entry[1])) in keys:
                continue
            keys.add(key)
        kept.append(entry)
    return kept


def _rewritten(r, g, image, inverse):
    """The cyclic core of ``r`` with ``image`` put for ``g`` and ``inverse`` for ``-g``; an image
    is reduced, so it cancels only where it meets the letters before it."""
    out = []
    for x in r:
        if x == g or x == -g:
            piece, n = image if x == g else inverse, 0
            while out and n < len(piece) and out[-1] == -piece[n]:
                out.pop()
                n += 1
            out += piece[n:]
        elif out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    while out and out[0] == -out[-1]:  # no letter is its own inverse
        del out[0], out[-1]
    return tuple(out)


def check(relators, live, steps, final):
    """Check that ``steps`` take ``relators``, (relator, origin) pairs, and ``live``, the live
    generators as ids + 1 in order, to ``final``, (pairs, live); a step is (generator, solution,
    relator index, provenance).  ``None`` if they do, else the index of the first fault, which
    is the step count for ``final``, and what it is."""
    entries = _first_of_each([(_bucket(r), r, origin) for r, origin in relators])
    for n, (g, solution, i, provenance) in enumerate(steps):
        if not 0 <= i < len(entries) or (r := entries[i][1]).count(g) + r.count(-g) != 1:
            return n, f"the generator is not eliminable by relator {i}"
        k = r.index(g) if g in r else r.index(-g)
        rest = r[k + 1 :] + r[:k]
        inverse = tuple([-x for x in reversed(rest)])
        image, inverse = (inverse, rest) if r[k] == g else (rest, inverse)
        if (solution, provenance) != (image, entries[i][2]):
            return n, f"the solution or the provenance is not relator {i}'s"
        for j, (_, r, origin) in enumerate(entries):
            if g in r or -g in r:
                r = _rewritten(r, g, image, inverse)
                entries[j] = _bucket(r), r, origin
        entries = _first_of_each(entries)
    dead = {g for g, *_ in steps}
    if ([entry[1:] for entry in entries], tuple([x for x in live if x not in dead])) != final:
        return len(steps), "the final presentation is not the one the steps reach"
    return None
