"""Exact integer machinery behind PTM pulse ordering.

Digit sums, Prouhet-Thue-Morse (PTM) sequences and block partitions, power
sums, equal-sums-of-like-powers (ESP) partition checking and search, and the
Rademacher-style sign transform used to isolate sidelobe contributions.

Everything combinatorial here is exact: power sums use Python's
arbitrary-precision integers, sign tables are small integer matrices, and
partition checks are integer equality tests.  Floating point enters only when
a transform is applied to complex data.
"""

from dataclasses import dataclass
from itertools import accumulate, chain
from math import comb, inf
from operator import add, le, mul, sub

import numpy as np

__all__ = [
    "digit_sum_mod",
    "ptm_sequence",
    "ptm_partition",
    "power_sum",
    "esp_check",
    "esp_search",
    "weight_table",
    "forward_transform",
    "inverse_transform",
    "sidelobe_split_check",
    "EspPartition",
    "EspCheck",
    "SidelobeSplitReport",
]

# Partition sizes p^(M+1) beyond this are refused rather than silently built.
MAX_PARTITION_SIZE = 1 << 22

# Universes larger than this are refused by the exhaustive ESP search.
MAX_SEARCH_UNIVERSE = 30

# Nodes an ESP search may visit before it is refused with ValueError.
MAX_SEARCH_NODES = 10**6

# Degrees and Taylor orders above this cap are almost certainly a unit error.
MAX_TAYLOR_ORDER = 32

# Values per object array of running powers in _power_sums, which bounds its
# memory; the degree-16 plan of the stagger-search bench, padded to about
# 34,900 slots per code, fits in one.
POWER_CHUNK = 1 << 16


def _json_ints(values, what: str) -> None:
    """Refuse JSON values that are not integers.

    json.load gives floats, strings and bools for them, which int() and
    numpy would silently truncate or coerce.
    """
    if not set(map(type, values)) <= {int}:
        raise ValueError(f"{what} must be integers")


def digit_sum_mod(n: int, p: int) -> int:
    """Sum of the base-p digits of n, reduced mod p.

    This is the symbol the mod-p PTM sequence assigns to index n.  For
    0 <= n < p it equals n itself.
    """
    if p < 2:
        raise ValueError(f"base must be at least 2, got {p}")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    total = 0
    while n:
        n, r = divmod(n, p)
        total += r
    return total % p


def _ptm_array(p: int, length: int) -> np.ndarray:
    """First `length` PTM symbols mod p: t[d*p^j + r] = (t[r] + d) mod p, r < p^j."""
    if p < 2:
        raise ValueError(f"base must be at least 2, got {p}")
    seq = np.zeros(1, dtype=np.int64)
    while seq.size < length:
        digits = np.arange(min(p, -(-length // seq.size)))[:, None]
        seq = ((seq + digits) % p).ravel()
    return seq[:length]


def _ptm_weights(p: int, levels: int, max_order: int) -> list[list[int]]:
    """W[m][c] = sum of n^m over n < p^levels of PTM symbol c, exact: level j
    moves the n < p^j of symbol c to d*p^j + n, of symbol (c+d) mod p."""
    sums = [[int(c == m == 0) for m in range(max_order + 1)] for c in range(p)]
    for j in range(levels):
        moved = [_shift_sums(sums, d * p**j) for d in range(p)]
        sums = [
            list(map(sum, zip(*(moved[d][(c - d) % p] for d in range(p)))))
            for c in range(p)
        ]
    return [list(col) for col in zip(*sums)]


def ptm_sequence(p: int, length: int) -> list[int]:
    """First `length` terms of the mod-p PTM sequence.

    Term n is digit_sum_mod(n, p).  For p=2 this is the classical
    Thue-Morse sequence 0,1,1,0,1,0,0,1,...
    """
    if length < 1:
        raise ValueError(f"length must be positive, got {length}")
    return _ptm_array(p, length).tolist()


def _capped_power(base: int, exponent: int, cap: int, what: str) -> int:
    """base**exponent, refused with ValueError when it exceeds `cap`.

    For base >= 2 any exponent past cap's bit length already exceeds the cap,
    so a huge exponent is refused without building the power.
    """
    if base >= 2 and exponent > cap.bit_length():
        raise ValueError(f"{what} {base}^{exponent} exceeds cap {cap}")
    size = base ** exponent
    if size > cap:
        raise ValueError(f"{what} {size} exceeds cap {cap}")
    return size


def _ptm_size(p: int, degree: int) -> int:
    """p^(degree+1), the size of a valid PTM partition."""
    if p < 2:
        raise ValueError(f"base must be at least 2, got {p}")
    if degree < 1:
        raise ValueError(f"degree must be positive, got {degree}")
    return _capped_power(p, degree + 1, MAX_PARTITION_SIZE, "partition size")


def ptm_partition(p: int, degree: int) -> "EspPartition":
    """The PTM p-block partition of {0,...,p^(degree+1)-1} as an EspPartition.

    Block c holds the n with digit_sum_mod(n, p) == c; the blocks share power
    sums up to the degree (Prouhet), read from the digit DP, not summed.
    """
    symbols = _ptm_array(p, _ptm_size(p, degree))
    blocks = tuple(tuple(np.flatnonzero(symbols == c).tolist()) for c in range(p))
    sums = tuple(row[0] for row in _ptm_weights(p, degree + 1, degree))
    return EspPartition(blocks, degree, sums)


def power_sum(values, m: int) -> int:
    """Exact sum of m-th powers over an integer multiset.

    Uses arbitrary-precision arithmetic; 0**0 counts as 1 so that the m=0
    sum is the multiset cardinality.
    """
    if m < 0:
        raise ValueError(f"power must be non-negative, got {m}")
    return sum(int(v) ** m for v in values)  # numpy ints would wrap


def _power_sums(values, max_order: int) -> list[int]:
    """[power_sum(values, m) for m = 0..max_order] of any integer sequence or
    array: 0**0 = 1, no entry for max_order < 0.  Non-negative int64 values
    that fill more than half of range(last + 1), none twice, take the range's
    sums (about max_order^2/2 products, so up to MAX_TAYLOR_ORDER) less
    their gaps'; any others one pass of running products over object
    arrays of Python ints made POWER_CHUNK values at a time."""
    array = np.asarray(values)  # ints at or above 2^63 are not int64
    ruled = array.dtype == np.int64 and max_order <= MAX_TAYLOR_ORDER
    last = int(array.max(initial=-1)) if ruled else inf
    if 2 * array.size > last + 1 and array.min() >= 0:
        counts = np.bincount(array)  # last + 1 < 2 * size entries
        if counts.max() == 1:
            gaps = _power_sums(np.flatnonzero(counts == 0), max_order)
            return list(map(sub, _range_power_sums(last + 1, max_order), gaps))
    sums = [len(values)] + [0] * max_order
    for lo in range(0, len(values), POWER_CHUNK):
        base = np.array(values[lo : lo + POWER_CHUNK], dtype=object)
        powers = np.ones_like(base)
        for m in range(1, max_order + 1):
            powers *= base
            sums[m] += int(powers.sum())
    return sums[: max_order + 1]


def _shift_sums(rows, a: int) -> list[list[int]]:
    """Each row of power sums S_0..S_M of a multiset A, moved to A + a:
    S_m(A + a) = sum_i C(m, i) a^(m-i) S_i(A), one table of C(m, i) a^(m-i)
    for every row.  An empty multiset (S_0 = 0) stays empty."""
    orders = range(len(rows[0]))
    table = [[comb(m, i) * a ** (m - i) for i in range(m + 1)] for m in orders]
    return [[sum(map(mul, t, row)) for t in table] if row[0] else row for row in rows]


def _range_power_sums(stop: int, max_order: int) -> list[int]:
    """_power_sums(range(stop), max_order) by Pascal's telescoping identity,
    stop^(m+1) = sum_i C(m+1, i) S_i over i = 0..m, one order at a time."""
    sums, row = [], [1]  # row: C(m + 1, i) for i = 0..m + 1
    for m in range(max_order + 1):
        row = [1, *map(add, row, row[1:]), 1]
        sums.append((stop ** (m + 1) - sum(map(mul, row, sums))) // (m + 1))
    return sums


@dataclass(frozen=True)
class EspCheck:
    """Outcome of an equal-power-sums test over a block family."""

    is_esp: bool
    prouhet_sums: tuple[int, ...]


def esp_check(blocks, degree: int) -> EspCheck:
    """Test whether blocks share identical power sums for m = 0..degree.

    Blocks are integer multisets (repeats count), so m = 0 asks for a
    common cardinality.  The reported sums P_0..P_degree come from block 0.
    A degree below 1 raises ValueError.
    """
    mats = [tuple(b) for b in blocks]
    if len(mats) < 2:
        raise ValueError("need at least two blocks")
    if degree < 1:
        raise ValueError(f"degree must be positive, got {degree}")
    reference, *others = (_power_sums(b, degree) for b in mats)
    ok = all(sums == reference for sums in others)
    return EspCheck(ok, tuple(reference))


@dataclass(frozen=True)
class EspPartition:
    """A p-block integer multiset family with equal power sums up to `degree`.

    prouhet_sums[m] is the common m-th power sum; prouhet_sums[0] is the
    common block cardinality.  Blocks may overlap (padded schedules) but each
    block is stored sorted.
    """

    blocks: tuple[tuple[int, ...], ...]
    degree: int
    prouhet_sums: tuple[int, ...]

    @classmethod
    def from_blocks(cls, blocks, degree: int) -> "EspPartition":
        """Validate equal power sums for m = 0..degree and build the partition.

        Blocks of unequal size or empty, and a degree below 1 raise ValueError.
        """
        mats = tuple(tuple(sorted(int(v) for v in b)) for b in blocks)
        if any(v < 0 for b in mats for v in b):
            raise ValueError("slot values must be non-negative")
        if not all(mats):
            raise ValueError("blocks must not be empty")
        result = esp_check(mats, degree)
        if not result.is_esp:
            raise ValueError(f"blocks do not share power sums up to degree {degree}")
        return cls(mats, degree, result.prouhet_sums)

    @property
    def p(self) -> int:
        return len(self.blocks)

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "M": self.degree,
            "blocks": [list(b) for b in self.blocks],
            "prouhetSums": list(self.prouhet_sums),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "EspPartition":
        """Rebuild from blocks and M; a declared p or prouhetSums must match."""
        if not isinstance(data, dict):
            raise TypeError("a partition is a JSON object")
        if isinstance(degree := data.get("M"), int) and degree > MAX_TAYLOR_ORDER:
            raise ValueError(f"degree must be at most {MAX_TAYLOR_ORDER}, got {degree}")
        declared = [data.get("p", 0), *data.get("prouhetSums", [])]
        values = chain(*data["blocks"], [data["M"]], declared)
        _json_ints(values, "blocks, M, p and prouhetSums")
        partition = cls.from_blocks(data["blocks"], data["M"])
        if data.get("p", partition.p) != partition.p:
            raise ValueError(f"declared p={data['p']} but {partition.p} blocks")
        sums = list(partition.prouhet_sums)
        if data.get("prouhetSums", sums) != sums:
            raise ValueError(f"declared prouhetSums differ from the blocks' {sums}")
        return partition


def esp_search(
    universe,
    p: int,
    degree: int,
    max_solutions: int | None = None,
) -> list[EspPartition]:
    """Exhaustively enumerate equal-size ESP partitions of a universe.

    Depth-first assignment of the sorted universe into p blocks of size
    q = |universe|/p; block j opens only after block j-1, so the minimum
    lands in block 0.  The search runs on the centred values
    v = 2e - (min + max), whose blocks share power sums up to the degree
    exactly when the original blocks do.  After each placement, every
    block's deficit d_m (target minus partial m-th power sum of v, d_0 = r
    its free places) must lie between the sums of the r smallest and of the
    r largest m-th powers left, and meet Cauchy-Schwarz on the r values still
    to come, d_m^2 <= d_(m-1) * d_(m+1) for odd m < degree; a full block must
    meet its targets exactly.  These cut only subtrees without a solution,
    so the output is every solution in lexicographic assignment order.  A
    degree of at least q returns [] unsearched: power sums m = 1..q of q
    values fix the values (Newton's identities), yet the blocks are
    disjoint.  Past MAX_SEARCH_NODES nodes the search raises ValueError
    rather than return a partial list.
    """
    elems = sorted(universe)
    if len(set(elems)) != len(elems):
        raise ValueError("universe must not contain duplicate values")
    if any(e < 0 for e in elems):
        raise ValueError("universe values must be non-negative")
    if p < 2:
        raise ValueError(f"block count must be at least 2, got {p}")
    if degree < 1:
        raise ValueError(f"degree must be positive, got {degree}")
    count = len(elems)
    if count == 0 or count % p:
        raise ValueError(f"universe size {count} is not divisible by {p} blocks")
    if count > MAX_SEARCH_UNIVERSE:
        raise ValueError(
            f"universe size {count} exceeds search bound {MAX_SEARCH_UNIVERSE}"
        )
    if max_solutions is not None and max_solutions < 1:
        raise ValueError("max_solutions must be positive when given")

    quota = count // p
    if degree >= quota:
        return []
    orders = range(degree + 1)
    # Each block takes 1/p of every total power sum (the count at m = 0).
    totals = _power_sums(elems, degree)
    if any(total % p for total in totals):
        return []
    prouhet_sums = tuple(total // p for total in totals)
    shift = elems[0] + elems[-1]
    powers = [[(2 * e - shift) ** m for m in orders] for e in elems]
    # The centred totals are sums of multiples of the original ones.
    targets = [sum(column) // p for column in zip(*powers)]

    # lows[k][r], highs[k][r]: per m, the sum of the r smallest and of the r
    # largest m-th powers of the values from k on, r = 0..quota; even powers
    # of v are not monotone in v, so each order is sorted on its own.  Where
    # fewer than r values are left, (inf,) is a count no deficit meets.
    lows, highs = [], []
    for k in range(count + 1):
        size = min(quota, count - k)
        columns = [sorted(row[m] for row in powers[k:]) for m in orders]
        short = [(inf,)] * (quota - size)
        lows.append([*zip(*(accumulate(c[:size], initial=0) for c in columns)), *short])
        highs.append(
            [*zip(*(accumulate(c[::-1][:size], initial=0) for c in columns)), *short]
        )
    schwarz = degree >= 2  # degree 1 has no odd m below it
    blocks: list[list[int]] = [[] for _ in range(p)]
    deficits = [targets] * p  # entry 0 counts the free places
    found: list[EspPartition] = []
    nodes = 0

    def fits(deficit: list[int], low, high) -> bool:
        # Enough values remain for the r = deficit[0] free places, and they
        # can reach the deficit at every m; a full block (r = 0) needs 0.
        r = deficit[0]
        return (
            all(map(le, low[r], deficit))
            and all(map(le, deficit, high[r]))
            and (
                not schwarz
                or all(
                    d * d <= a * b
                    for a, d, b in zip(deficit[::2], deficit[1::2], deficit[2::2])
                )
            )
        )

    def place(i: int) -> bool:
        # Returns False once enough solutions were collected.
        nonlocal nodes
        nodes += 1
        if nodes > MAX_SEARCH_NODES:
            raise ValueError(f"search exceeds the budget of {MAX_SEARCH_NODES} nodes")
        if i == count:
            solution = tuple(map(tuple, blocks))
            found.append(EspPartition(solution, degree, prouhet_sums))
            return max_solutions is None or len(found) < max_solutions
        low, high = lows[i + 1], highs[i + 1]
        # A block that cannot fit without elems[i] must take it.
        stuck = [j for j, d in enumerate(deficits) if not fits(d, low, high)]
        if len(stuck) > 1:
            return True
        for j in stuck or range(p):
            if j and not blocks[j - 1]:
                break  # opening block j before j-1 only permutes blocks
            deficit = deficits[j]
            if not deficit[0]:
                continue
            reduced = list(map(sub, deficit, powers[i]))
            if not fits(reduced, low, high):
                continue
            deficits[j] = reduced
            blocks[j].append(elems[i])
            keep_going = place(i + 1)
            blocks[j].pop()
            deficits[j] = deficit
            if not keep_going:
                return False
        return True

    place(0)
    return found


def weight_table(p: int) -> np.ndarray:
    """Read-only 2^(p-1) x p int8 sign matrix of the Rademacher-style weights.

    rows[i, v] = (-1)**bit(i, p-1-v); row 0 is all ones.  A weight sequence
    is evaluated at general n through the PTM symbol: w_i(n) = rows[i, v]
    with v = digit_sum_mod(n, p).
    """
    if not 2 <= p <= 20:
        raise ValueError(f"symbol count must be in 2..20, got {p}")
    # Bit p-1-v of every row index i; int8 after the shift keeps that bit.
    index = np.arange(1 << (p - 1), dtype=np.int32)[:, None]
    shifted = index >> np.arange(p - 1, -1, -1, dtype=np.int32)
    rows = 1 - 2 * (shifted.astype(np.int8) & 1)
    rows.setflags(write=False)
    return rows


def forward_transform(values) -> np.ndarray:
    """Signed sums B_i = sum_n w_i(n) * A_n over the p input scalars.

    Produces 2^(p-1) components.  For p=2 this is (a0+a1, a0-a1).
    """
    a = np.asarray(values, dtype=complex)
    if a.ndim != 1:
        raise ValueError("expected a 1-D array of scalars")
    return weight_table(len(a)) @ a


def inverse_transform(values) -> np.ndarray:
    """Recover the p scalars from their 2^(p-1) signed sums.

    A_n = 2^(1-p) * sum_i w_i(n) * B_i; exact inverse of forward_transform
    because distinct columns of the sign matrix are orthogonal over the
    2^(p-1) rows.
    """
    b = np.asarray(values, dtype=complex)
    if b.ndim != 1:
        raise ValueError("expected a 1-D array of scalars")
    if not b.size or b.size & (b.size - 1):
        raise ValueError(f"length {b.size} is not a power of two")
    return (weight_table(b.size.bit_length()).T @ b) / float(b.size)


@dataclass(frozen=True)
class SidelobeSplitReport:
    """Residuals of the weighted sidelobe-isolation identity.

    For the split A_n = 2^(1-p) * (B_0 + S(n)) with S(n) the signed sum of
    the non-constant transform components, the identity

        sum_{n < p^(degree+1)} n^m * S(n) = N_m * B_0,
        N_m = 2^(p-1) * P_m - sum_{n < p^(degree+1)} n^m

    holds for m = 1..degree.  residuals[m-1] is the relative mismatch of the
    two sides evaluated independently.
    """

    degree: int
    n_coefficients: tuple[int, ...]
    residuals: np.ndarray


def sidelobe_split_check(values, degree: int) -> SidelobeSplitReport:
    """Evaluate both sides of the sidelobe-isolation identity directly.

    The left side is a plain weighted sum over n = 0..p^(degree+1)-1 of the
    non-constant signed component S(n); the right side uses the exact
    integer coefficient N_m.  No block structure is assumed in the
    evaluation, so the returned residuals genuinely test the identity.
    """
    a = np.asarray(values, dtype=complex)
    if a.ndim != 1:
        raise ValueError("expected a 1-D array of scalars")
    p = len(a)
    rows = weight_table(p)
    size = _ptm_size(p, degree)

    b = rows @ a
    # S(n) depends on n only through its PTM symbol; P_m is the weight of
    # symbol 0 and the range sum that of all symbols together.
    s_by_symbol = rows[1:].T.astype(float) @ b[1:]
    s_parts = np.stack([s_by_symbol.real, s_by_symbol.imag, np.abs(s_by_symbol)], 1)
    s_cols = s_parts[_ptm_array(p, size)]
    weights = _ptm_weights(p, degree + 1, degree)

    index_range = np.arange(size, dtype=float)
    powers = np.ones(size)
    n_coeffs = []
    residuals = np.empty(degree)
    for m in range(1, degree + 1):
        powers *= index_range
        re, im, s_size = powers @ s_cols
        lhs = complex(re, im)
        n_m = (1 << (p - 1)) * weights[m][0] - sum(weights[m])
        rhs = n_m * b[0]
        # Relative to the size of the terms that cancel: the left side keeps
        # their rounding error even where the exact sum (N_m = 0 for p=2) is 0.
        scale = max(1.0, float(s_size), abs(rhs))
        residuals[m - 1] = abs(lhs - rhs) / scale
        n_coeffs.append(n_m)
    return SidelobeSplitReport(degree, tuple(n_coeffs), residuals)
