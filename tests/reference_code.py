"""Slow paths the code module replaced, kept as the oracles it is
cross-checked against.

The |C|^2 binary-side checks the kernel/coset decomposition replaced: the
kernel by testing every translate of C by one of its words, and the
Hadamard check with the pairwise-distance clause run over all pairs of
words, in word order.  These are the references for BinaryCode.kernel_cosets,
kernel_bruteforce and is_hadamard.

The coset-by-coset subgroup enumeration (Dimino's algorithm) that the
echelon bases of CodeGroup replaced: the reference for CodeGroup's
membership, order and listings, log2_order and rank_by_span_group.
"""

from z2z4q8.algebra import mul


def kernel_by_translation(words):
    """Every z in the word list with C + z = C, in list order.

    Searching inside C is enough when 0 is in C: then any kernel word is."""
    members = set(words)
    return [z for z in words if all((w ^ z) in members for w in words)]


def hadamard_diagnosis(n, words):
    """'' if the sorted packed words form a Hadamard code of length n,
    else the first failing clause, worded as is_hadamard words it."""
    half = n // 2
    full = (1 << n) - 1
    if len(words) != 2 * n:
        return f"size: expected {2 * n} codewords, got {len(words)}"
    members = set(words)
    if 0 not in members:
        return "all-zeros word missing"
    if full not in members:
        return "all-ones word missing"
    for bits in words:
        w = bits.bit_count()
        if w not in (0, half, n):
            return f"word of weight {w} (allowed 0, {half}, {n})"
    for i, wi in enumerate(words):
        for wj in words[i + 1:]:
            d = (wi ^ wj).bit_count()
            if d != half and d != n:
                return f"pair at distance {d} (allowed {half}, {n})"
    return ""


class DiminoSpan:
    """A subgroup grown one generator at a time, enumerated coset by coset.

    add(g) is one step of Dimino's algorithm (Butler, Fundamental Algorithms
    for Permutation Groups, ch. 6): with H the span so far, it multiplies
    each coset representative (the identity first) by every generator and
    appends the right coset H*y of each product y not yet spanned.  Right
    cosets partition the span, so g need not normalize H.  `generators`
    lists, in order, the added elements that were not yet spanned.
    """

    def __init__(self, space, elements=()):
        self.space = space
        self.elements = [space.identity()]
        self.members = set(self.elements)
        self.generators = []
        for g in elements:
            self.add(g)

    def add(self, g):
        if g in self.members:
            return
        if g.space != self.space:
            raise ValueError("generators live in different ambient spaces")
        self.generators.append(g)
        old = self.elements[:]
        reps = old[:1]  # the identity represents H itself
        for rep in reps:
            for s in self.generators:
                y = mul(rep, s)
                if y in self.members:
                    continue
                coset = [mul(h, y) for h in old]
                self.elements.extend(coset)
                self.members.update(coset)
                reps.append(y)

    def __contains__(self, x):
        return x in self.members

    def __len__(self):
        return len(self.elements)
