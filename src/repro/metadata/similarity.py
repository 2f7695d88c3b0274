"""String and set similarity measures used by schema matching and ER.

The measures are classic data-integration primitives (Rahm & Bernstein
2001 survey): edit distance, Jaro-Winkler, q-gram Jaccard for names, and
value-overlap / Jaccard for instance-based matching. For dirty-key entity
resolution at scale, :func:`ngram_jaccard_matrix` scores whole candidate
*batches* at once via factorized n-gram codes (``np.unique`` over the gram
vocabulary + one sparse set-intersection matmul, :func:`intersection_sizes`)
instead of a Python loop per pair; schema matching counts its value
overlaps through the same product. :func:`levenshtein_distance` is Myers'
bit-parallel algorithm.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Set, Tuple

import numpy as np
from scipy import sparse


def levenshtein_distance(a: str, b: str) -> int:
    """Edit distance between two strings, bit-parallel over the longer one.

    Myers' bit-vector algorithm (JACM 1999) in Hyyrö's form for the global
    distance: one column of the dynamic-programming table is two bit
    vectors of vertical +1 / -1 steps, and each character of the shorter
    string advances the whole column in a fixed number of integer
    operations. The distance is the same integer the table gives.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    # Peq[c]: the positions of a that hold c.
    peq: dict = {}
    for i, char in enumerate(a):
        peq[char] = peq.get(char, 0) | (1 << i)
    mask = (1 << len(a)) - 1
    last = 1 << (len(a) - 1)
    pv, mv, distance = mask, 0, len(a)
    for char in b:
        eq = peq.get(char, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            distance += 1
        elif mh & last:
            distance -= 1
        # Row 0 of the table counts up by one per character of b.
        ph = (ph << 1) | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return distance


def levenshtein_similarity(a: str, b: str) -> float:
    """Edit distance normalized to [0, 1], 1.0 for identical strings."""
    if not a and not b:
        return 1.0
    longest = max(len(a), len(b))
    return 1.0 - levenshtein_distance(a, b) / longest


def jaro_similarity(a: str, b: str) -> float:
    """Jaro similarity between two strings."""
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    match_window = max(len(a), len(b)) // 2 - 1
    match_window = max(match_window, 0)
    a_matched = [False] * len(a)
    b_matched = [False] * len(b)
    matches = 0
    for i, char_a in enumerate(a):
        start = max(0, i - match_window)
        end = min(i + match_window + 1, len(b))
        for j in range(start, end):
            if b_matched[j] or b[j] != char_a:
                continue
            a_matched[i] = True
            b_matched[j] = True
            matches += 1
            break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i, matched in enumerate(a_matched):
        if not matched:
            continue
        while not b_matched[j]:
            j += 1
        if a[i] != b[j]:
            transpositions += 1
        j += 1
    transpositions //= 2
    return (
        matches / len(a) + matches / len(b) + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler_similarity(a: str, b: str, prefix_weight: float = 0.1) -> float:
    """Jaro-Winkler similarity boosting shared prefixes (up to 4 chars)."""
    jaro = jaro_similarity(a, b)
    prefix_length = 0
    for char_a, char_b in zip(a[:4], b[:4]):
        if char_a != char_b:
            break
        prefix_length += 1
    return jaro + prefix_length * prefix_weight * (1.0 - jaro)


def _ngrams(text: str, n: int) -> Set[str]:
    padded = f"{'#' * (n - 1)}{text.lower()}{'#' * (n - 1)}"
    return {padded[i : i + n] for i in range(len(padded) - n + 1)}


def ngram_jaccard_similarity(a: str, b: str, n: int = 3) -> float:
    """Jaccard similarity of character n-gram sets (default trigrams)."""
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    grams_a, grams_b = _ngrams(a, n), _ngrams(b, n)
    return len(grams_a & grams_b) / len(grams_a | grams_b)


def ngram_code_sets(strings: Sequence[str], n: int = 3) -> Tuple[np.ndarray, np.ndarray]:
    """Factorize the n-gram sets of many strings into one shared code space.

    Returns ``(codes, indptr)``: string ``i``'s gram set is
    ``codes[indptr[i]:indptr[i + 1]]`` — sorted, duplicate-free integer
    codes where equal grams (across all strings) share a code. Empty
    strings get empty sets (matching the scalar short-circuit, which never
    extracts grams from an empty operand).
    """
    gram_lists: List[Set[str]] = [
        _ngrams(s, n) if s else set() for s in strings
    ]
    lengths = np.fromiter((len(g) for g in gram_lists), dtype=np.int64,
                          count=len(gram_lists))
    indptr = np.zeros(len(gram_lists) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    flat: List[str] = [gram for grams in gram_lists for gram in grams]
    if flat:
        _, codes = np.unique(np.asarray(flat, dtype=np.str_), return_inverse=True)
        codes = codes.astype(np.int64, copy=False)
    else:
        codes = np.empty(0, dtype=np.int64)
    # Sort each string's run so the sets-as-sorted-codes invariant holds.
    for i in range(len(gram_lists)):
        codes[indptr[i]:indptr[i + 1]].sort()
    return codes, indptr


def _indicator(codes: np.ndarray, indptr: np.ndarray, vocabulary: int) -> sparse.csr_matrix:
    data = np.ones(codes.size, dtype=np.float64)
    return sparse.csr_matrix(
        (data, codes.astype(np.int64, copy=False), indptr), shape=(indptr.size - 1, vocabulary)
    )


def intersection_sizes(codes: np.ndarray, indptr: np.ndarray, n_left: int) -> np.ndarray:
    """``|A_i ∩ B_j|`` for every pair of coded sets, as one sparse product.

    Set ``s`` is ``codes[indptr[s]:indptr[s + 1]]`` (duplicate-free codes
    in one code space); the first ``n_left`` sets are the ``A_i``, the
    rest the ``B_j``. Each side becomes a set × code 0/1 CSR ``L`` and
    ``R``, and ``L @ Rᵀ`` counts every pair's shared codes (exactly: the
    counts stay far below 2**53).
    """
    vocabulary = int(codes.max(initial=-1)) + 1
    split = indptr[n_left]
    left = _indicator(codes[:split], indptr[: n_left + 1], vocabulary)
    right = _indicator(codes[split:], indptr[n_left:] - split, vocabulary)
    return (left @ right.T).toarray()


def ngram_jaccard_matrix(
    left: Sequence[str], right: Sequence[str], n: int = 3
) -> np.ndarray:
    """All-pairs :func:`ngram_jaccard_similarity` as one vectorized batch.

    Gram extraction is linear in total characters; the quadratic pair
    scoring runs as a single sparse set-intersection matmul over the
    factorized gram codes, so scoring a blocking bucket costs no Python
    per pair. Cell ``[i, j]`` equals ``ngram_jaccard_similarity(left[i],
    right[j], n)`` exactly (the parity tests assert this).
    """
    both = list(left) + list(right)
    codes, indptr = ngram_code_sets(both, n)
    n_left = len(left)
    intersection = intersection_sizes(codes, indptr, n_left)
    left_sizes = np.diff(indptr[: n_left + 1]).astype(np.float64)
    right_sizes = np.diff(indptr[n_left:]).astype(np.float64)
    union = left_sizes[:, None] + right_sizes[None, :] - intersection
    with np.errstate(invalid="ignore", divide="ignore"):
        similarity = np.where(union > 0, intersection / np.where(union > 0, union, 1.0), 1.0)
    return similarity


def jaccard_set_similarity(a: Iterable, b: Iterable) -> float:
    """Jaccard similarity of two value sets."""
    set_a, set_b = set(a), set(b)
    if not set_a and not set_b:
        return 1.0
    union = set_a | set_b
    if not union:
        return 1.0
    return len(set_a & set_b) / len(union)


def value_overlap(a: Iterable, b: Iterable) -> float:
    """Containment-style overlap: |A ∩ B| / min(|A|, |B|).

    This is the standard instance-based matching signal for detecting that
    two columns draw values from the same domain even when one is a subset
    of the other (e.g. a department table vs. the whole hospital).
    """
    set_a, set_b = set(a), set(b)
    if not set_a or not set_b:
        return 0.0
    return len(set_a & set_b) / min(len(set_a), len(set_b))


def token_sort_similarity(a: str, b: str) -> float:
    """Levenshtein similarity after splitting on non-alphanumerics and sorting.

    Useful for names such as ``resting_heart_rate`` vs ``heart rate resting``.
    """
    tokens_a = sorted(_tokenize(a))
    tokens_b = sorted(_tokenize(b))
    return levenshtein_similarity(" ".join(tokens_a), " ".join(tokens_b))


def _tokenize(text: str) -> Sequence[str]:
    tokens = []
    current = []
    for char in text.lower():
        if char.isalnum():
            current.append(char)
        elif current:
            tokens.append("".join(current))
            current = []
    if current:
        tokens.append("".join(current))
    return tokens
