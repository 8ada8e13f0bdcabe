"""Minimum-gate reversible synthesis over {X, CNOT, CCX} on packed words.

The classical stage of an encoder sends the coset labels, K strings of
w bits, to counting order.  The search runs over states that pack the K
strings into one uint32 or uint64 word, w bits per field, and applies
gates to whole arrays of such words at once.  It uses no Pauli or
stabilizer type: circuits wraps its gate list in a Circuit.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import gf2
from .errors import BadParams, NotFound

SYNTH_CHUNK = 1 << 16  # words canonicalised or deduplicated at once
_CONTROLS = {"X": 0, "CNOT": 1, "CCX": 2}


def _bit_gates(w: int, gate_set: tuple) -> list[tuple]:
    """The X, CNOT and CCX of gate_set on w bits: (name, *controls, target).

    Raises BadParams naming any other gate name, or when gate_set holds
    none of the three.
    """
    unknown = [g for g in gate_set if g not in _CONTROLS]
    if unknown:
        raise BadParams(f"unknown gate names {unknown} in gate_set; "
                        f"synthesis takes {', '.join(_CONTROLS)}")
    if not gate_set:
        raise BadParams(f"gate_set holds none of {', '.join(_CONTROLS)}")
    return [(g, *c, t) for g in _CONTROLS if g in gate_set
            for c in itertools.combinations(range(w), _CONTROLS[g])
            for t in range(w) if t not in c]


def _gate_images(gates: list[tuple], w: int, K: int, dtype):
    """A function mapping packed states a, K fields of w bits each, to
    their (G, N) images under the G gates, row g for gates[g].

    Qubit q is bit w-1-q of each field, so qubit 0 is the most
    significant.  Each gate is a (G, 1) column: its target bit in every
    field (mask), and per control how far that bit lies above the target
    (down) or below it (up).  The rows are written in place: the first
    control (all ones for X) is shifted into them, the second controls
    of the CCX rows are and-ed in through a scratch block of at most
    SYNTH_CHUNK words, then out &= mask and out ^= a.  gates must be
    sorted by name: that alone puts the CCX rows first and the X rows
    last ('CCX' < 'CNOT' < 'X').
    """
    G = len(gates)
    ones = sum(1 << (w * i) for i in range(K))
    mask = np.array([ones << (w - 1 - g[-1]) for g in gates],
                    dtype).reshape(G, 1)
    # target minus each control; a missing control stands at the target
    tc = np.array([(g[-1], *g[1:-1], g[-1], g[-1])[:3] for g in gates],
                  np.int64).reshape(G, 3)
    d = (tc[:, :1] - tc[:, 1:]).T[..., None]
    down, up = np.maximum(d, 0).astype(dtype), np.maximum(-d, 0).astype(dtype)
    two = sum(len(g) == 4 for g in gates)  # the leading CCX rows
    one = G - sum(len(g) == 2 for g in gates)  # rows with a control
    chunk = SYNTH_CHUNK // max(two, 1)
    top = np.iinfo(dtype).max

    def images(a):
        out = np.empty((G, a.size), dtype)
        np.right_shift(a, down[0, :one], out=out[:one])
        out[:one] <<= up[0, :one]
        out[one:] = top
        if two:
            tmp = np.empty((two, min(chunk, a.size)), dtype)
            for lo in range(0, a.size, chunk):
                c = a[lo:lo + chunk]
                t = np.right_shift(c, down[1, :two], out=tmp[:, :c.size])
                t <<= up[1, :two]
                out[:two, lo:lo + chunk] &= t
        out &= mask
        out ^= a
        return out
    return images


def _planes(w: int, K: int, dtype) -> np.ndarray:
    """Row t masks plane t of a packed state, bit w-1-t of every field:
    the bits only a gate with target t changes.  A (w, 1) array."""
    ones = sum(1 << (w * i) for i in range(K))
    return np.array([ones << (w - 1 - t) for t in range(w)],
                    dtype).reshape(w, 1)


def _distinct(a: np.ndarray) -> np.ndarray:
    """Distinct values of a sorted 1-D array, as np.unique.

    At synthesis frontier sizes numpy 2.x's hash-path np.unique and a[mask]
    on a sparse mask are many times slower than np.compress, here by
    chunks to keep compress's index array small.
    """
    out = [a[:1]]
    for lo in range(1, a.size, SYNTH_CHUNK):
        c = a[lo:lo + SYNTH_CHUNK]
        out.append(np.compress(c != a[lo - 1:lo - 1 + c.size], c))
    return np.concatenate(out)


def _images_bytes(count: int, itemsize: int) -> int:
    """Bytes for count images to become a level, temporaries included."""
    return (2 * itemsize + 12) * count


def _in_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask of the entries of a that occur in the sorted, nonempty array b."""
    pos = np.searchsorted(b, a)
    return b[np.minimum(pos, b.size - 1, out=pos)] == a


def _members(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask of a's entries in b (both sorted, a distinct); probes the
    smaller."""
    if a.size <= b.size:
        return _in_sorted(a, b)
    pos = np.searchsorted(a, b)
    np.minimum(pos, a.size - 1, out=pos)
    mask = np.zeros(a.size, dtype=bool)
    mask[pos[a[pos] == b]] = True
    return mask


def _shared(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The values of both sorted distinct arrays a and b, sorted."""
    both = np.concatenate([a, b])
    both.sort()
    return np.compress(both[1:] == both[:-1], both[1:])


def _batcher_pairs(n: int) -> list[tuple[int, int]]:
    """Batcher's odd-even merge sort of n keys as comparators (i, j), i < j."""
    return [(i + j, i + j + k)
            for p in (1 << e for e in range((n - 1).bit_length()))
            for k in (p >> e for e in range(p.bit_length()))
            for j in range(k % p, n - k, 2 * k)
            for i in range(min(k, n - j - k))
            if (i + j) // (2 * p) == (i + j + k) // (2 * p)]


def _canonicaliser(w: int, K: int, hold: int, dtype):
    """Sorts the packed fields hold..K-1 of each word in place, by chunks
    split into per-field uint8 columns that pass a compare-exchange
    network.  A chunk is short enough that its (fields, chunk) shift
    temporary holds at most SYNTH_CHUNK words.

    Gates act on every field alike, so they commute with permutations of
    the fields and searching the sorted representatives is exact.
    """
    if hold >= K - 1:
        return lambda a: a
    shifts = np.array([w * i for i in range(hold, K)], dtype).reshape(-1, 1)
    mask, keep = np.uint8((1 << w) - 1), dtype((1 << (w * hold)) - 1)
    pairs = _batcher_pairs(K - hold)
    chunk = max(SYNTH_CHUNK // (K - hold), 1)

    def canon(a):
        for lo in range(0, a.size, chunk):
            c = a[lo:lo + chunk]
            cols = list((c >> shifts).astype(np.uint8) & mask)
            for i, j in pairs:
                cols[i], cols[j] = (np.minimum(cols[i], cols[j]),
                                    np.maximum(cols[i], cols[j]))
            c &= keep
            for col, s in zip(cols, shifts[:, 0]):
                c |= np.left_shift(col, s, dtype=dtype)
        return a
    return canon


def _joiner(by_target: list[list], target_images: list, fill: np.ndarray,
            canon, tables: dict, charge):
    """join(S, O): the sorted states of level O one gate from level S.

    A state's plane-t key is canon(x | m), m its bit w-1-t in every
    field.  Each level's w keys per state are sorted and deduplicated
    once, and kept in tables while the level is its side's newest.
    The keys S and O share pick the states of S to expand: a state
    whose plane-t key hashes like a shared one is expanded by the gates
    with target t, and the distinct images that lie in O are the join.
    A key of one plane may equal a key of another, and two keys may
    hash alike; both only add candidates.  A join is charged the tables
    once more than charge(nbytes, what) counts them, for their merge, and
    4w words a state of S and O; the candidate images, _images_bytes and
    the masks and output.  by_target[t] lists the gates with target t,
    target_images[t] applies them, and fill holds _planes' plane masks.
    """
    w, dtype = len(by_target), fill.dtype.type
    bits = np.iinfo(dtype).bits
    golden = dtype(0x9E3779B97F4A7C15 >> (64 - bits))

    def hash16(keys):  # Fibonacci hashing to 16 bits
        return (keys * golden) >> (bits - 16)

    def keyed(level):  # the (w, N) plane keys of level's states
        return canon((level | fill).reshape(-1)).reshape(w, -1)

    def table(level):  # level's sorted distinct keys, computed once
        if id(level) not in tables:
            keys = keyed(level).reshape(-1)
            keys.sort()
            tables[id(level)] = _distinct(keys)
        return tables[id(level)]

    def join(S, O):
        charge(sum(t.nbytes for t in tables.values())
               + 4 * w * (S.nbytes + O.nbytes),
               f"keying {S.size} and {O.size} states on {w} planes")
        shared = _shared(table(S), table(O))
        del tables[id(S)]  # S's side expands next, or the search is over
        if not shared.size:
            return shared
        lut = np.zeros(1 << 16, bool)  # a filter: the images are exact
        lut[hash16(shared)] = True
        hit = lut[hash16(keyed(S))]
        found, size = [], 0
        for t in np.flatnonzero(hit.any(axis=1)).tolist():
            cand = np.compress(hit[t], S)
            size += cand.size * len(by_target[t])
            charge(hit.nbytes + O.nbytes + O.size
                   + _images_bytes(size, S.itemsize),
                   f"joining through {size} candidate images")
            found.append(target_images[t](cand).reshape(-1))
        imgs = canon(np.concatenate(found))
        found.clear()
        imgs.sort()
        return np.compress(_members(O, imgs), O)
    return join


def _bounded_expander(by_target: list[list], target_images: list,
                      planes: np.ndarray, hold: int, charge):
    """near(level, slack, root): the images of level at most slack planes
    from root, uncanonicalised, built one target plane at a time as
    _search describes, each target's block by slices of SYNTH_CHUNK
    images.  Plane t of the held fields 0..hold-1 is compared with root's
    by value, of the other fields by popcount.  A target's block is
    charged, before it is built, w + 1 bytes a state for the plane tests
    and _images_bytes of the images kept so far and of the whole block.
    """
    w = len(by_target)
    held = planes[:, 0] & planes.dtype.type((1 << (w * hold)) - 1)
    free = planes[:, 0] ^ held

    def far(a, root, t):
        """Whether the states a differ from root in plane t."""
        h, f = held[t], free[t]
        out = (a & h) != (root & h)
        if f:
            out |= np.bitwise_count(a & f) != np.bitwise_count(root & f)
        return out

    def near(level, slack, root):
        # w bytes per state, less than the key table the join just built
        fars = [far(level, root, t) for t in range(w)]
        base = np.full(level.size, slack, np.int8)  # slack - bound
        for f in fars:
            base -= f
        kept, size = [level[:0]], 0
        for t, f in enumerate(fars):
            if not by_target[t]:
                continue
            room = base + f
            some = room >= 0
            src = np.compress(some, level)
            charge((w + 1) * level.size + _images_bytes(
                size + src.size * len(by_target[t]), level.itemsize),
                f"expanding {src.size} states by the {len(by_target[t])} "
                f"gates with target {t}")
            room = np.compress(some, room)
            step = max(1, SYNTH_CHUNK // len(by_target[t]))
            for lo in range(0, src.size, step):
                imgs = target_images[t](src[lo:lo + step])
                keep = far(imgs, root, t) <= room[lo:lo + step]
                kept.append(np.compress(keep.reshape(-1), imgs.reshape(-1)))
                size += kept[-1].size
        return np.concatenate(kept)
    return near


def _search(inputs: list[str], gate_set: tuple, max_gates: int,
            any_order: bool, cap: int) -> tuple[list[tuple], tuple]:
    """Lex-min minimum-gate sequence sending the inputs to 0..K-1, and order.

    The order lists the indices of the inputs sent to 0, 1, ...  With
    any_order the search runs modulo permutations of the packed fields.
    Bidirectional breadth-first search: each level is a sorted array of
    the packed states (uint32 when K*w <= 32) at exactly that distance from
    its side's root.  With f and b levels past the roots and no meet yet,
    the distance exceeds f + b; the newest level S of the side the
    schedule below picks is joined with the other side's newest level O,
    and a state of O one gate from S lies f + b + 1 steps from the start,
    so the join's output is the meet and the search stops.  Otherwise S
    is expanded, deduplicated and pruned, unless f + b + 1 = max_gates:
    no later join could use the new level, and NotFound is raised at
    once.

    The join is exact.  A gate with target t changes only plane t, bit
    w-1-t of every field, so x and its image agree once every field has
    that bit set.  Setting a plane commutes with the canonicaliser's
    permutations of the fields, so x and canon(image) share the plane-t
    key canon(x | m).  Every state of O one gate from S is thus the
    image, under a gate with target t, of a state of S whose plane-t key
    is also one of O's.  The join builds those images and checks them
    exactly against O, so extra candidates cost time, not correctness.

    A max_gates close to the optimum is what bounds the search.  Only a
    gate with target t changes plane t, so the planes in which a state
    differs from a root are a lower bound on the gates between them.  A
    plane is compared by value in counting order; in any order the held
    field's bit is compared by value and the other fields by popcount,
    which permuting them keeps.  A new level at depth d keeps a state
    only when d plus its bound to the other side's root is at most
    max_gates.  Before slack = max_gates - d < w every state passes;
    after, the level is expanded one target plane at a time.  An image
    under a gate with target t differs from its state only in plane t,
    so its bound is the state's, less the state's plane-t term far_t,
    plus the image's.  Each state's w terms are computed once; then for
    each t, room = slack - bound + far_t, only the states with room >= 0
    are expanded, by the gates with target t alone, and an image is kept
    when its own far_t is at most room (room >= 1, or plane t matches
    the root's).  The kept set is that of testing every image on all w
    planes.  The pruning is exact.  A state i gates
    from one root on a shortest path of D <= max_gates gates lies D - i
    gates, at least its bound, from the other, so every state on a
    shortest path is kept.  The joins thus meet at the same depth on the
    same states, and the shortest-path pruning and the lex-min walk are
    unchanged: they keep only states on a shortest path, which every
    pruned level still holds.  A state dropped at its own depth is
    dropped at every later one, so the levels stay exact distance
    levels, and an empty level still means that no circuit of max_gates
    gates exists.
    The schedule expands the side whose next level costs less: the
    size of its newest level if that next level is bounded, as its
    images are filtered before any sort, else w times that size, as the
    next level will be sorted and keyed on w planes.  It changes which
    levels are built, not which states lie on a shortest path, so the
    circuit and order are those of any other schedule.  With a loose
    max_gates no level is bounded and each side costs w times its size.

    One routine, _gate_images, applies the gates everywhere: level
    expansion, the join, the pruning of forward levels to states on some
    shortest path, the greedy walk from the start that takes the smallest
    gate staying on one, and the replay on the inputs.  Each expansion,
    target block, join and its candidate images is charged to cap before
    it is built, with the levels and key tables held (gf2.charge).
    """
    K = len(inputs)
    if K == 0 or K > 64:
        raise BadParams("need between 1 and 64 input strings")
    w = len(inputs[0])
    if w > 8 or any(len(s) != w for s in inputs):
        raise BadParams("inputs must share one width of at most 8 bits")
    if len(set(inputs)) != K:
        raise BadParams("inputs must be distinct")
    if K > (1 << w):
        raise BadParams("more inputs than w-bit strings")
    if K * w > 64:
        raise BadParams("packed search supports K*w <= 64")
    if max_gates < 0:
        raise BadParams(f"max_gates must be at least 0, got {max_gates}")
    dtype = np.uint32 if K * w <= 32 else np.uint64
    vals = [int(s, 2) for s in inputs]
    # any order: the all-zero input, if present, sorts into field 0 and stays
    start = sorted(vals) if any_order else vals
    hold = int(0 in vals) if any_order else K
    canon = _canonicaliser(w, K, hold, dtype)
    gates = sorted(_bit_gates(w, tuple(gate_set)))
    images = _gate_images(gates, w, K, dtype)
    by_target = [[g for g in gates if g[-1] == t] for t in range(w)]
    target_images = [_gate_images(g, w, K, dtype) for g in by_target]
    planes = _planes(w, K, dtype)
    tables = {}  # the join's key tables, by the id of their level

    def charge(nbytes, what):  # the levels and key tables held count too
        held = fwd + back + list(tables.values())
        gf2.charge(nbytes + sum(a.nbytes for a in held), what, cap)

    join = _joiner(by_target, target_images, planes, canon, tables, charge)
    near = _bounded_expander(by_target, target_images, planes, hold, charge)

    def step(states):
        """Every gate's image of every state, gate-major."""
        charge(_images_bytes(states.size * len(gates), states.itemsize),
               f"expanding {states.size} states by {len(gates)} gates")
        return images(states).reshape(-1)

    def expand(level, slack=w, root=None):
        """The images of level, canonicalised and sorted; when slack < w,
        only those at most slack planes from root."""
        new = step(level) if slack >= w else near(level, slack, root)
        new = canon(new)
        new.sort()
        return new

    def cost(side):  # words keyed or sorted to build side's next level
        return side[-1].size * (1 if max_gates - len(side) < w else w)

    def packed(vs):  # value i into bits w*i .. w*i + w - 1 of one word
        return np.array([sum(v << (w * i) for i, v in enumerate(vs))], dtype)

    fwd, back = [packed(start)], [packed(range(K))]  # one-state roots
    meet = np.compress(fwd[0] == back[0], fwd[0])
    while not meet.size:
        if len(fwd) + len(back) - 2 >= max_gates:
            raise NotFound(max_gates)
        side, other = ((fwd, back) if cost(fwd) <= cost(back)
                       else (back, fwd))
        meet = join(side[-1], other[-1])
        if meet.size:
            new = meet
        elif len(fwd) + len(back) - 1 >= max_gates:
            raise NotFound(max_gates)
        else:
            new = _distinct(expand(side[-1], max_gates - len(side),
                                   other[0]))
            for old in side[-2:]:  # neighbours lie at most one level closer
                new = np.compress(~_members(new, old), new)
            if not new.size:  # this side's component is exhausted
                raise NotFound(max_gates)
        side.append(new)

    # on_path[j]: states j steps from the start on some shortest path
    on_path = [meet]
    for level in fwd[-2::-1]:
        imgs = expand(on_path[0])
        on_path.insert(0, np.compress(_members(level, imgs), level))
    picked = []
    cur = fwd[0]
    # all gates are involutions: back[k] is "k steps from the target"
    for level in on_path[1:] + back[-2::-1]:
        imgs = canon(step(cur))
        picked.append(int(np.flatnonzero(_in_sorted(imgs, level))[0]))
        cur = imgs[picked[-1]:picked[-1] + 1]
    end = packed(vals)  # the inputs in their own order, uncanonicalised
    for i in picked:
        end = images(end)[i]
    ends = [int(end[0]) >> (w * i) & ((1 << w) - 1) for i in range(K)]
    return ([gates[i] for i in picked],
            tuple(sorted(range(K), key=ends.__getitem__)))
