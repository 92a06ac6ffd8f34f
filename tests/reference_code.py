"""The |C|^2 binary-side checks the kernel/coset decomposition replaced.

Kept as the oracles that BinaryCode.kernel_cosets, kernel_bruteforce and
is_hadamard are cross-checked against: the kernel by testing every
translate of C by one of its words, and the Hadamard check with the
pairwise-distance clause run over all pairs of words, in word order.
"""


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
