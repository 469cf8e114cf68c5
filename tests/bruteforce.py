"""Independent brute-force oracles used to check the library.

Everything here is written directly from the definitions, with no code
shared with the package: plain scans, split enumerations, and divisor
loops.  Slow on purpose; meant for small inputs.  The one exception is
``bf_scan_space``, which names each morphism through the package's own
``Morphism`` and ``format_morphism``, as the scan's records do.
"""

from itertools import product
from math import gcd


def words_of_length(n):
    return ("".join(bits) for bits in product("01", repeat=n))


def words_up_to(n, include_empty=True):
    start = 0 if include_empty else 1
    for k in range(start, n + 1):
        yield from words_of_length(k)


def bf_exchange(w):
    return "".join("1" if c == "0" else "0" for c in reversed(w))


def bf_letter_swap(w):
    """Each letter flipped in place: 0 <-> 1, the order kept."""
    return "".join("1" if c == "0" else "0" for c in w)


def bf_scan_space(max_image_len):
    """The sorted canonical scan texts: a ``Morphism`` for every pair of
    nonempty images of up to ``max_image_len`` letters, kept when its text
    is no larger than that of its letter swap 0->swap(b),1->swap(a)."""
    from antipal.morphisms import Morphism, format_morphism

    texts = []
    for i0 in words_up_to(max_image_len, include_empty=False):
        for i1 in words_up_to(max_image_len, include_empty=False):
            text = format_morphism(Morphism(i0, i1))
            if text <= format_morphism(Morphism(bf_letter_swap(i1), bf_letter_swap(i0))):
                texts.append(text)
    return sorted(texts)


def bf_is_palindrome(w):
    return all(w[i] == w[len(w) - 1 - i] for i in range(len(w)))


def bf_is_antipalindrome(w):
    return w == bf_exchange(w)


def bf_theta(w):
    return "".join("01" if c == "0" else "10" for c in w)


def bf_smallest_period(w):
    """Try every p in turn: w has period p when w[p:] == w[:n-p] (compared
    as memoryviews, so a long word is not copied once per p)."""
    n = len(w)
    letters = memoryview(w.encode())
    for p in range(1, n + 1):
        if letters[p:] == letters[: n - p]:
            return p
    raise AssertionError


def bf_primitive_root(w):
    n = len(w)
    for d in range(1, n + 1):
        if n % d == 0 and w[:d] * (n // d) == w:
            return w[:d], n // d
    raise AssertionError


def bf_commutation(x, y):
    """None if xy != yx, else the (root, i, j) with the shortest root."""
    if x + y != y + x:
        return None
    base = x or y
    if not base:
        return ("0", 0, 0)
    for d in range(1, len(base) + 1):
        u = base[:d]
        if len(x) % d == 0 and len(y) % d == 0 and u * (len(x) // d) == x and u * (len(y) // d) == y:
            return (u, len(x) // d, len(y) // d)
    return None


def bf_transfer_solutions(x, y, z):
    """All (u, v, i) with x = uv, y = (uv)^i u, z = vu, by split enumeration."""
    if not x or x + y != y + z:
        return []
    out = []
    for cut in range(len(x) + 1):
        u, v = x[:cut], x[cut:]
        i = 0
        while True:
            candidate = (u + v) * i + u
            if len(candidate) > len(y):
                break
            if candidate == y and v + u == z:
                out.append((u, v, i))
            i += 1
    return out


def bf_pal_antipal_solutions(x, y):
    """All (u, i, j): u palindrome, x = (u E(u))^i u, y = (E(u) u)^j E(u)."""
    out = []
    for d in range(1, min(len(x), len(y)) + 1):
        qx, rx = divmod(len(x), d)
        qy, ry = divmod(len(y), d)
        if rx or ry or qx % 2 == 0 or qy % 2 == 0:
            continue
        u = x[:d]
        if not bf_is_palindrome(u):
            continue
        e = bf_exchange(u)
        i, j = (qx - 1) // 2, (qy - 1) // 2
        if (u + e) * i + u == x and (e + u) * j + e == y:
            out.append((u, i, j))
    return out


def bf_split_witnesses(x0, x1, mirror):
    """Every split x_a == common + rest_a with all three parts fixed by
    ``mirror``, as (common, rest0, rest1): each prefix length is tried in
    turn, longest first, comparing the two prefixes letter by letter."""
    found = []
    for plen in range(min(len(x0), len(x1)), -1, -1):
        common, rest0, rest1 = x0[:plen], x0[plen:], x1[plen:]
        if x1[:plen] == common and mirror(common) and mirror(rest0) and mirror(rest1):
            found.append((common, rest0, rest1))
    return tuple(found)


def bf_a2_witnesses(max_image_len):
    """Every class-A2 witness (core, k, h) built forwards from its
    definition, 0 -> theta(core (R(core) core)^k) and
    1 -> theta((R(core) core)^h R(core)), with both images at most
    max_image_len letters; indexed by the image pair, shortest core first."""
    out = {}
    for ell in range(1, max_image_len // 2 + 1):
        for core in words_of_length(ell):
            r = core[::-1]
            for k in range(max_image_len):
                for h in range(max_image_len):
                    images = (bf_theta(core + (r + core) * k), bf_theta((r + core) * h + r))
                    if max(map(len, images)) <= max_image_len:
                        out.setdefault(images, []).append((core, k, h))
    return out


def bf_two_palindromes(w):
    return [
        (w[:k], w[k:])
        for k in range(len(w) + 1)
        if bf_is_palindrome(w[:k]) and bf_is_palindrome(w[k:])
    ]


def bf_two_antipalindromes(w):
    return [
        (w[:k], w[k:])
        for k in range(len(w) + 1)
        if bf_is_antipalindrome(w[:k]) and bf_is_antipalindrome(w[k:])
    ]


def bf_normal_forms(w):
    """All (rotation offset, c, k): rotation == (c E(c))^k with c a palindrome."""
    n = len(w)
    out = []
    if n % 2:
        return out
    for s in range(n):
        r = w[s:] + w[:s]
        for d in range(1, n // 2 + 1):
            if (n // 2) % d:
                continue
            c = r[:d]
            k = n // (2 * d)
            if bf_is_palindrome(c) and (c + bf_exchange(c)) * k == r:
                out.append((s, c, k))
    return out


def bf_longest_antipalindrome(w):
    n = len(w)
    best = 0
    for i in range(n):
        for j in range(i + 2, n + 1, 2):
            if j - i > best and bf_is_antipalindrome(w[i:j]):
                best = j - i
    return best


def bf_manacher_longest_antipalindrome(w):
    """Linear-time reference for long words: one Manacher pass over the
    difference word, keeping the odd palindromes centred on a letter 1
    (exactly the antipalindromes of w)."""
    m = len(w) - 1
    if m < 1:
        return 0
    d = ["1" if w[i] != w[i + 1] else "0" for i in range(m)]
    radius = [0] * m
    center = right = 0
    best = 0
    for i in range(m):
        r = min(radius[2 * center - i], right - i) if i < right else 0
        while i - r - 1 >= 0 and i + r + 1 < m and d[i - r - 1] == d[i + r + 1]:
            r += 1
        radius[i] = r
        if i + r > right:
            center, right = i, i + r
        if d[i] == "1" and r + 1 > best:
            best = r + 1
    return 2 * best


def bf_factor_set(u, n):
    return {u[i : i + n] for i in range(len(u) - n + 1)}


def bf_apply(image0, image1, w):
    return "".join(image0 if c == "0" else image1 for c in w)


def bf_prolongable_letters(image0, image1):
    """Letters a with image a·w, w nonempty, some letter of which never dies
    out: the mortal letters are grown to a fixpoint, a letter joining them
    once every letter of its image is mortal."""
    images = {"0": image0, "1": image1}
    mortal = set()
    changed = True
    while changed:
        changed = False
        for letter, image in images.items():
            if letter not in mortal and all(c in mortal for c in image):
                mortal.add(letter)
                changed = True
    return {
        letter
        for letter, image in images.items()
        if len(image) >= 2 and image[0] == letter and any(c not in mortal for c in image[1:])
    }


def bf_fixed_point_prefix(image0, image1, letter, n):
    """Iterate the morphism from one letter until n letters are fixed."""
    w = letter
    while len(w) < n:
        w = bf_apply(image0, image1, w)
    return w[:n]


def bf_fixed_point_letters(image0, image1, letter, n):
    """Read the fixed point x = m(x) from the left: x starts as m(letter),
    and the images of the letters of x not read yet are appended until n
    letters are known.  Linear in n, also where iterating m from one
    letter gains one letter a round (0 -> 0, 1 -> 10)."""
    images = {"0": image0, "1": image1}
    x, read = images[letter], 1
    while len(x) < n:
        known = len(x)
        x += "".join(map(images.get, x[read:known]))
        read = known
    return x[:n]


def bf_proven_period(image0, image1, prefix):
    """The lcm-window check: the prefix's smallest period r, when it repeats
    at least four times and r**inf equals host(r)**inf, compared over one
    window of lcm(|r|, |host(r)|) letters; None otherwise."""
    p = bf_smallest_period(prefix)
    if p > len(prefix) // 4:
        return None
    r = prefix[:p]
    image = bf_apply(image0, image1, r)
    if not image:
        return None
    window = p * len(image) // gcd(p, len(image))
    if r * (window // p) != image * (window // len(image)):
        return None
    return r


def bf_language(m, letter, n):
    """L_n, the set of n-factors of the fixed point u of the Morphism m read
    from ``letter``, by block closure: L_2 is the least set that holds the
    2-factors of m(letter) and those of m(xy) for each of its xy, and L_n is
    the n-factors of the blocks m^k(x)m^k(y), xy in L_2, where every m^k(c)
    has at least n - 1 letters (an n-window of u = m^k(u) then covers at
    most two blocks).  Both images must grow under iteration."""
    image = lambda w: bf_apply(m.image0, m.image1, w)
    pairs, more = set(), {image(letter)}
    while more:
        found = {w[i : i + 2] for w in more for i in range(len(w) - 1)} - pairs
        pairs |= found
        more = {image(xy) for xy in found}
    if n <= 2:
        return {w[:n] for w in pairs}
    blocks = {"0": "0", "1": "1"}
    while min(len(w) for w in blocks.values()) < n - 1:
        grown = {c: image(w) for c, w in blocks.items()}
        assert grown != blocks, "a letter never grows"
        blocks = grown
    return {
        w[i : i + n] for x, y in pairs for w in [blocks[x] + blocks[y]] for i in range(len(w) - n + 1)
    }


def bf_bispecials(u, top):
    """Bispecial factors of u of lengths 0 .. top-1, sorted within each length."""
    out = []
    for n in range(top):
        longer = bf_factor_set(u, n + 1)
        out.extend(
            sorted(
                w
                for w in bf_factor_set(u, n)
                if all(x in longer for x in (w + "0", w + "1", "0" + w, "1" + w))
            )
        )
    return out


def bf_e_closed(u, top):
    """Whether every factor of u of length 1 .. top has its exchange as a factor."""
    for n in range(1, top + 1):
        fs = bf_factor_set(u, n)
        if any(bf_exchange(w) not in fs for w in fs):
            return False
    return True


def bf_conjugacy_chain(image0, image1):
    """The conjugacy chain by rolling the images one letter at a time, as
    (chain, qs, q_full, cyclic) with chain a tuple of image pairs.

    Roll the shared first letter of both images to their ends until the
    first letters differ (the leftmost conjugate), or until the walk
    returns to the start (commuting images: the rotation cycle).  Then
    roll the shared last letter back to the front, collecting it into the
    conjugacy words.
    """
    limit = len(image0) * len(image1) + 1
    start = cur = (image0, image1)
    cycle = [start]
    for _ in range(limit + 1):
        u, v = cur
        if not (u and v and u[0] == v[0]):
            break
        cur = (u[1:] + u[0], v[1:] + u[0])
        if cur == start:
            return tuple(cycle), (), bf_primitive_root(image0 or image1)[0], True
        cycle.append(cur)
    else:
        raise AssertionError("forward walk did not stop")
    chain = [cur]
    q_letters = []
    qs = [""]
    for _ in range(limit + 1):
        u, v = chain[-1]
        if not (u and v and u[-1] == v[-1]):
            break
        chain.append((u[-1] + u[:-1], u[-1] + v[:-1]))
        q_letters.append(u[-1])
        qs.append("".join(reversed(q_letters)))
    else:
        raise AssertionError("backward walk did not stop")
    return tuple(chain), tuple(qs), qs[-1], False


def bf_antipal_center(idx, limit):
    """Longest w with |w| <= min(limit, stable_up_to // 2) and E(w) + w a
    factor of the prefix, grown letter by letter ("0" first) with
    backtracking; the first one of greatest length found wins."""
    cap = min(limit, idx.stable_up_to // 2)
    best = ""
    sets = {}

    def grow(w):
        nonlocal best
        if len(w) > len(best):
            best = w
        if len(w) >= cap:
            return
        for letter in "01":
            cand = w + letter
            n = 2 * len(cand)
            if n not in sets:
                sets[n] = bf_factor_set(idx.prefix, n)
            if bf_exchange(cand) + cand in sets[n]:
                grow(cand)

    grow("")
    return best


def bf_chain_walk(enumerate_witnesses, m, chain, where):
    """The class search over a whole conjugacy chain with no shortcut: every
    element is enumerated, m's first witness is kept, and the first element
    with a witness gives (where, witness, index, q), q its conjugacy word
    against the leftmost element (None on a cyclic chain)."""
    found = [enumerate_witnesses(element) for element in chain.chain]
    own = next(iter(found[chain.chain.index(m)]), None)
    for index, ws in enumerate(found):
        if ws:
            q = None if chain.cyclic else chain.q_full[len(chain.q_full) - index :]
            return own, (where, ws[0], index, q)
    return own, None
