"""Seeded benchmark inputs, built without importing dopwave.

The benchmark hands the program only files made here.  Code sets are built
from their textbook constructions and then moved around by transforms that
keep a set complementary, so every seed exercises the same code paths on
different bytes:

* code permutation (the PTM train then sends the codes in another order),
* a per-code integer phase offset (for binary sets, negation),
* per-code reversal with conjugation, which leaves each ACF unchanged,
* one linear phase ramp x[n] * w^(s*n) shared by all codes (for binary sets
  with s = 1 this is the alternating sign); it multiplies every ACF at lag k
  by the same w^(-s*k), so the off-peak sums still cancel.

All phases stay integers of the original phase order.
"""

import hashlib
import json
import random

BUILTIN_DEGREE5 = ((0, 5, 6, 16, 17, 22), (1, 2, 10, 12, 20, 21))


def golay_phases(exponent: int) -> list[list[int]]:
    """Binary Golay pair of length 2^exponent as phase lists (0 -> +1, 1 -> -1)."""
    a, b = [0], [0]
    for _ in range(exponent):
        a, b = a + b, a + [1 - v for v in b]
    return [a, b]


def dft_phases(count: int) -> list[list[int]]:
    """Code k of the DFT family has phase k*n mod count at entry n."""
    return [[(k * n) % count for n in range(count)] for k in range(count)]


def transform_set(codes: list[list[int]], order: int, rng: random.Random):
    """Apply the complementarity-preserving transforms listed in the module doc."""
    codes = [list(c) for c in codes]
    rng.shuffle(codes)
    ramp = rng.randrange(order)
    out = []
    for code in codes:
        if rng.random() < 0.5:
            code = [(-p) % order for p in reversed(code)]
        offset = rng.randrange(order)
        out.append([(p + offset + ramp * n) % order for n, p in enumerate(code)])
    return out


def code_set_dict(codes: list[list[int]], order: int) -> dict:
    """The program's code-set file layout (one phase list per code)."""
    return {"N": len(codes[0]), "K": len(codes), "phaseOrder": order, "phases": codes}


def digit_sum_mod(n: int, p: int) -> int:
    total = 0
    while n:
        n, r = divmod(n, p)
        total += r
    return total % p


def ptm_indices(count: int, length: int) -> list[int]:
    return [digit_sum_mod(n, count) for n in range(length)]


def prouhet_double(blocks, degree: int, levels: int, rng: random.Random):
    """Raise a two-block ESP partition's degree by `levels` Prouhet doublings.

    (A, B) of degree M and span D gives (A + (B+g), B + (A+g)) of degree M+1
    for any gap g >= D.  The first doublings use g = D; the last six add a
    seeded 0..2 slots, which moves the layout but keeps the span within
    0.3 % of the minimal one, so every seed costs the program the same.
    """
    a, b = list(blocks[0]), list(blocks[1])
    for level in range(levels):
        span = max(a + b) + 1
        gap = span + (rng.randrange(3) if level >= levels - 6 else 0)
        a, b = a + [v + gap for v in b], b + [v + gap for v in a]
    return sorted(a), sorted(b), degree + levels


def theta_window(rng: random.Random, half_width: float, max_shift: float):
    """A theta interval of fixed width whose centre the seed places."""
    centre = round(rng.uniform(-max_shift, max_shift), 6)
    return centre - half_width, centre + half_width


def dump(path, data) -> str:
    """Write JSON the way the program does and return the file's sha256."""
    text = json.dumps(data, indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return hashlib.sha256(text.encode()).hexdigest()
