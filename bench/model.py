"""Reference semantics written for the benchmark alone.

Nothing here imports idealconv.  Every checker compares the program's
answers with these few-line evaluations of the definitions, so a fault
in the program cannot hide behind the same fault in its checker.

* Finite models: subsets of {0..s-1} are bitmasks; an ideal on a finite
  set is the power set of its generator mask; escape masks are compared
  with generator masks literally.
* NAT terms (JSON form) evaluate to Python integers used as bitsets over
  a box [lo, hi).  A term whose constants are all below C and whose
  atoms repeat with period P is decided exactly by two boxes: [1, C)
  holds every finite member, and [C, C + P) is empty exactly when the
  set is finite.
* NATPAIR terms (JSON form) are constant on the cells cut by the
  coordinates their atoms mention; one point per cell decides the cell,
  and the cell sizes give the exact cardinality.
* The two catalog bijections and the metric-line functions are evaluated
  pointwise from their textbook definitions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

ELEMENT_LIST_CAP = 10_000

# --- finite models ---------------------------------------------------


def topologies(m: int):
    """All labeled topologies on {0..m-1}, as sorted tuples of open masks."""
    full = (1 << m) - 1
    subsets = range(full + 1)
    out = []
    for fam in range(1 << (full + 1)):
        if not (fam & 1 and fam >> full & 1):
            continue
        opens = [u for u in subsets if fam >> u & 1]
        if all(fam >> (a | b) & 1 and fam >> (a & b) & 1 for a in opens for b in opens):
            out.append(tuple(opens))
    return out


def escape_mask(fn, u: int) -> int:
    """Indices k whose value fn[k] lies outside the open set u."""
    e = 0
    for k, v in enumerate(fn):
        if not u >> v & 1:
            e |= 1 << k
    return e


def min_open(opens, x: int) -> int:
    out = -1
    for u in opens:
        if u >> x & 1:
            out &= u
    return out


def finite_limit(opens, fn, x: int, gen: int) -> bool:
    """x is a limit along the ideal generated by gen: every open set
    around x is escaped only on a subset of gen."""
    return all(escape_mask(fn, u) & ~gen == 0 for u in opens if u >> x & 1)


def finite_star(opens, fn, x: int, gi: int, gj: int) -> bool:
    """Some region m with complement inside gi keeps every escape inside
    gj once the sequence is overwritten with x off m."""
    full = (1 << len(fn)) - 1
    escs = [escape_mask(fn, u) for u in opens if u >> x & 1]
    for m in range(full + 1):
        if (full & ~m) & ~gi:
            continue
        if all((e & m) & ~gj == 0 for e in escs):
            return True
    return False


# --- NAT terms -------------------------------------------------------


def _lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


def _residue_class(pid: str, index: int):
    """(modulus, residue) of a NAT partition block."""
    if pid == "ruler":
        return 1 << index, 1 << (index - 1)
    m = int(pid.split(":", 1)[1])
    return m, index % m


def nat_shape(t) -> tuple:
    """(C, P): every constant of the term is below C, and from C on the
    term's membership repeats with period P."""
    if "op" in t:
        c, p = 1, 1
        for s in t["terms"]:
            cs, ps = nat_shape(s)
            c, p = max(c, cs), _lcm(p, ps)
        return c, p
    a = t["atom"]
    if a == "tail":
        return t["start"] + 1, 1
    if a == "finite":
        return max(t["elements"], default=0) + 1, 1
    if a == "block":
        return 1, _residue_class(t["partition"], t["index"])[0]
    return 1, 1


def _periodic(lo: int, hi: int, q: int, r: int) -> int:
    """Bitset over [lo, hi) of the n with n = r (mod q)."""
    n = hi - lo
    first = (r - lo) % q
    if first >= n:
        return 0
    mask, step = 1 << first, q
    while step < n - first:
        mask |= mask << step
        step *= 2
    return mask & ((1 << n) - 1)


def nat_bits(t, lo: int, hi: int) -> int:
    """The term's members in [lo, hi) as a bitset (bit k is lo + k)."""
    allbits = (1 << (hi - lo)) - 1
    if "op" in t:
        ts = [nat_bits(s, lo, hi) for s in t["terms"]]
        op = t["op"]
        if op == "compl":
            return allbits & ~ts[0]
        if op == "union":
            out = 0
            for b in ts:
                out |= b
            return out
        if op == "inter":
            out = allbits
            for b in ts:
                out &= b
            return out
        return ts[0] & ~ts[1]
    a = t["atom"]
    if a == "empty":
        return 0
    if a == "full":
        return allbits
    if a == "tail":
        s = max(t["start"], lo)
        return allbits & ~((1 << (s - lo)) - 1) if s < hi else 0
    if a == "finite":
        out = 0
        for e in t["elements"]:
            if lo <= e < hi:
                out |= 1 << (e - lo)
        return out
    q, r = _residue_class(t["partition"], t["index"])
    return _periodic(lo, hi, q, r)


def nat_member(t, n: int) -> bool:
    return bool(nat_bits(t, n, n + 1))


def _bit_positions(bits: int, base: int):
    out = []
    while bits:
        low = bits & -bits
        out.append(base + low.bit_length() - 1)
        bits ^= low
    return out


def nat_summary(t):
    """(kind, cardinality, elements) exactly, from the two boxes."""
    c, p = nat_shape(t)
    if nat_bits(t, c, c + p):
        return "infinite", None, None
    below = nat_bits(t, 1, c)
    card = bin(below).count("1")
    if card == 0:
        return "empty", 0, ()
    elems = tuple(_bit_positions(below, 1)) if card <= ELEMENT_LIST_CAP else None
    return "finite", card, elems


def nat_meets_infinitely_many_ruler_blocks(t) -> bool:
    """Does the set contain numbers of unbounded 2-adic valuation?  Beyond
    C the set is a union of classes mod P; a class r mod P (2^a exactly
    dividing P) has unbounded valuation iff 2^a divides r."""
    c, p = nat_shape(t)
    a = (p & -p).bit_length() - 1
    window = nat_bits(t, c, c + p)
    return any(n % (1 << a) == 0 for n in _bit_positions(window, c))


# --- NATPAIR terms ---------------------------------------------------


def _pair_cuts(t, xs: set, ys: set):
    if "op" in t:
        for s in t["terms"]:
            _pair_cuts(s, xs, ys)
        return
    a = t["atom"]
    if a == "finite":
        for x, y in t["elements"]:
            xs.update((x, x + 1))
            ys.update((y, y + 1))
    elif a == "upperquad":
        xs.add(t["start"])
        ys.add(t["start"])
    elif a == "row":
        ys.update((t["index"], t["index"] + 1))
    elif a == "col":
        xs.update((t["index"], t["index"] + 1))
    elif a == "block":
        k = t["index"]
        xs.update((k, k + 1))
        if t["partition"] == "corner":
            ys.update((k, k + 1))


_PAIR_SETS = {}


def _pair_set(t) -> set:
    """Elements of a finite pair atom as a set, kept with the atom itself
    so that its id cannot be reused while cached."""
    hit = _PAIR_SETS.get(id(t))
    if hit is None or hit[0] is not t:
        if len(_PAIR_SETS) > 50_000:
            _PAIR_SETS.clear()
        hit = _PAIR_SETS[id(t)] = (t, {tuple(e) for e in t["elements"]})
    return hit[1]


def pair_member(t, e) -> bool:
    if "op" in t:
        op = t["op"]
        if op == "compl":
            return not pair_member(t["terms"][0], e)
        if op == "union":
            return any(pair_member(s, e) for s in t["terms"])
        if op == "inter":
            return all(pair_member(s, e) for s in t["terms"])
        return pair_member(t["terms"][0], e) and not pair_member(t["terms"][1], e)
    a, b = e
    at = t["atom"]
    if at == "empty":
        return False
    if at == "full":
        return True
    if at == "finite":
        return (a, b) in _pair_set(t)
    if at == "upperquad":
        return a >= t["start"] and b >= t["start"]
    if at == "row":
        return b == t["index"]
    if at == "col":
        return a == t["index"]
    if t["partition"] == "columns":
        return a == t["index"]
    return min(a, b) == t["index"]


def pair_cells(t):
    """Member cells as (x_lo, x_hi, y_lo, y_hi); a None bound is open."""
    xs, ys = {1}, {1}
    _pair_cuts(t, xs, ys)
    xc, yc = sorted(xs), sorted(ys)
    xspans = [(v, xc[k + 1] - 1 if k + 1 < len(xc) else None) for k, v in enumerate(xc)]
    yspans = [(v, yc[k + 1] - 1 if k + 1 < len(yc) else None) for k, v in enumerate(yc)]
    return [
        (xl, xh, yl, yh)
        for xl, xh in xspans
        for yl, yh in yspans
        if pair_member(t, (xl, yl))
    ]


def pair_summary(t):
    cells = pair_cells(t)
    if any(xh is None or yh is None for _, xh, _, yh in cells):
        return "infinite", None, None
    card = sum((xh - xl + 1) * (yh - yl + 1) for xl, xh, yl, yh in cells)
    if card == 0:
        return "empty", 0, ()
    if card > ELEMENT_LIST_CAP:
        return "finite", card, None
    elems = sorted(
        (a, b)
        for xl, xh, yl, yh in cells
        for a in range(xl, xh + 1)
        for b in range(yl, yh + 1)
    )
    return "finite", card, tuple(elems)


# --- both universes --------------------------------------------------


def is_pair_term(t) -> bool:
    if "op" in t:
        return is_pair_term(t["terms"][0])
    a = t["atom"]
    if a in ("empty", "full", "finite"):
        return t["universe"] == "natpair"
    if a == "block":
        return t["partition"] in ("columns", "corner")
    return a != "tail"


def summary(t):
    return pair_summary(t) if is_pair_term(t) else nat_summary(t)


def member(t, e) -> bool:
    return pair_member(t, e) if is_pair_term(t) else nat_member(t, e)


def op(name: str, *ts):
    return {"op": name, "terms": list(ts)}


# --- ideals ----------------------------------------------------------


def in_ideal(i, t):
    """Exact membership of term t in catalog ideal i, or None where the
    benchmark keeps no rule of its own (the ideal axioms still apply)."""
    k = i["ideal"]
    if k == "improper":
        return True
    if k == "fin":
        return summary(t)[0] != "infinite"
    if k == "principal":
        return summary(op("diff", t, i["set"]))[0] == "empty"
    if k == "partition" and i["partition"] == "ruler":
        return not nat_meets_infinitely_many_ruler_blocks(t)
    if k == "partition" and i["partition"] == "columns":
        return all(xh is not None for _, xh, _, _ in pair_cells(t))
    if k == "pringsheim" or (k == "partition" and i["partition"] == "corner"):
        # min(a, b) is unbounded on a cell only when both sides are open
        return all(xh is not None or yh is not None for _, xh, _, yh in pair_cells(t))
    if k in ("uniform_product", "pointwise_product") and i["base"]["ideal"] == "fin":
        # finitely many b beside each of the first `cutoff` columns
        return all(yh is not None for xl, _, _, yh in pair_cells(t) if xl <= i["cutoff"])
    if k == "trace":
        return in_ideal(i["base"], op("inter", t, i["set"]))
    if k == "pushforward" and i["bijection"] == "ruler_corner":
        base = i["base"]
        if base["ideal"] == "fin":
            return summary(t)[0] != "infinite"
        if base == {"ideal": "partition", "universe": "nat", "partition": "ruler"}:
            # ruler block i goes onto corner block i
            return in_ideal({"ideal": "pringsheim", "universe": "natpair"}, t)
    return None


def proper(i) -> bool:
    k = i["ideal"]
    if k == "improper":
        return False
    full = {"atom": "full", "universe": i["universe"]}
    if k == "principal":
        return summary(op("diff", full, i["set"]))[0] != "empty"
    if k == "trace":
        return not in_ideal(i["base"], i["set"])
    if "base" in i:
        return proper(i["base"])
    return True


# --- bijections ------------------------------------------------------


def v2(n: int) -> int:
    return (n & -n).bit_length() - 1


def diag_pair(n: int):
    """n-th pair of the diagonal sweep (1,1), (2,1), (1,2), (3,1), ..."""
    m = n - 1
    d = (isqrt(8 * m + 1) - 1) // 2
    r = m - d * (d + 1) // 2
    return (d - r + 1, r + 1)


def diag_index(e) -> int:
    d = e[0] + e[1] - 2
    return d * (d + 1) // 2 + e[1]


def rc_encode(n: int):
    """Ruler block i (odd multiples of 2^(i-1)) onto corner block i:
    the corner point first, then alternately the first and the second
    arm, moving outwards."""
    i = v2(n) + 1
    k = ((n >> (i - 1)) + 1) // 2
    if k == 1:
        return (i, i)
    if k % 2 == 0:
        return (i + k // 2, i)
    return (i, i + k // 2)


def rc_decode(e) -> int:
    a, b = e
    i = min(a, b)
    k = 1 if a == b else (2 * (a - i) if b == i else 2 * (b - i) + 1)
    return (2 * k - 1) << (i - 1)


def bijection_apply(name: str, e):
    return {
        "pairing": diag_pair,
        "pairing_inv": diag_index,
        "ruler_corner": rc_encode,
        "ruler_corner_inv": rc_decode,
    }[name](e)


# --- metric-line functions -------------------------------------------


def value(o) -> Fraction:
    if isinstance(o, dict):
        return Fraction(o["num"], o["den"])
    return Fraction(o)


def block_of(pid: str, e) -> int:
    if pid == "columns":
        return e[0]
    if pid == "corner":
        return min(e)
    if pid == "ruler":
        return v2(e) + 1
    m = int(pid.split(":", 1)[1])
    return e % m or m


def fn_value(f, e) -> Fraction:
    """Pieces in order, then the diagonal family, then the default."""
    for p in f["pieces"]:
        if member(p["set"], e):
            spec = p["value"]
            if "const" in spec:
                return value(spec["const"])
            rank = diag_index(e) if f["universe"] == "natpair" else e
            return value(spec["tails_to"]) + value(spec.get("drift", 1)) / rank
    d = f.get("diagonal")
    if d is not None:
        return value(d["target"]) + value(d["scale"]) / block_of(d["partition"], e)
    return value(f["default"])
