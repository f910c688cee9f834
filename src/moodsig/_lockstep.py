"""The forest's scorer: the leaf values that rows reach in trees grown in
lockstep, bit for bit those of `forest._grow_trees`'s trees.

Every tree keeps its own generator, bootstrap draw and right-subtree-first
depth-first order. In each step every tree still growing pops its own stack,
settling leaves, up to the next node it tries to split, and draws that
node's candidates; one pass of numpy calls then scores the candidate splits
of all those nodes together. A tree's features are presorted once, by dense
rank and then bootstrap position, which is the tie order of the grower's
stable sort, and a node's rows in a feature's order are the presorted
positions that sit in the node: one flat segment per (node, candidate).
Class counts are exact integers, so flat prefix sums give every segment's
left counts; left sums of targets accumulate along the rows of a
zero-padded block, as the grower's do, and a node's total target is one
add.reduce over its targets in bootstrap order. The split, first maximum in
position-major order, threshold and stop rules are the grower's.
"""

import numpy as np


def _dense_ranks(X):
    # X's columns as dense ranks, (features, rows): equal values, -0.0 and
    # 0.0 among them, share a rank
    order = X.argsort(axis=0, kind="stable")
    xs = np.take_along_axis(X, order, 0)
    in_order = np.zeros(X.shape, dtype=np.min_scalar_type(len(X) - 1))
    np.cumsum(xs[1:] != xs[:-1], axis=0, dtype=in_order.dtype, out=in_order[1:])
    ranks = np.empty_like(in_order)
    np.put_along_axis(ranks, order, in_order, 0)
    return ranks.T


def _score_trees(mode, cfg, n_candidates, n_classes, X, y, key, tree_ids, rows):
    """The leaf values that `rows` reach in the trees tree_ids of the job
    (X, y, key), one (trees, rows, C) array. The other arguments are those
    of fit's tasks; n_classes, 0 in regress mode, tells the mode. A tree
    grows only until the rows sit in leaves: a node it has not grown then
    would only draw later from its generator."""
    classify = n_classes > 0
    m, f = X.shape
    min_leaf, nc = cfg.min_leaf, n_candidates
    max_depth = m if cfg.max_depth is None else cfg.max_depth
    T = len(tree_ids)
    if not len(rows):
        return np.zeros((T, 0, n_classes or 1))
    scored = rows.tolist()
    gens = [np.random.default_rng((*key, t)) for t in tree_ids]
    row = np.concatenate([g.integers(0, m, size=m) for g in gens])
    # per tree, its features' ranks at its bootstrap positions; row t * f + c
    # of `order` is tree t's positions in feature c's order, as indices into
    # the flat (tree, bootstrap position) arrays `row` (the position's row
    # of X), `y` and `node` (the node it sits in)
    keys = _dense_ranks(X)[:, row].reshape(f, T, m).swapaxes(0, 1)
    order = keys.argsort(axis=2, kind="stable")
    sorted_keys = np.take_along_axis(keys, order, 2).reshape(T * f, m)
    order = (order + np.arange(0, T * m, m)[:, None, None]).reshape(T * f, m)
    y = y[row]
    node = np.zeros(T * m, dtype=np.int32)
    next_id = 1
    roots = [None] * T
    if classify:
        roots = np.bincount(np.repeat(np.arange(0, T * n_classes, n_classes), m) + y,
                            minlength=T * n_classes).reshape(T, -1).tolist()
    # a stack entry: (node, size, depth, rows held, class counts in classify mode)
    unsettled = [len(scored)] * T
    stacks = [[(0, m, 0, tuple(range(len(scored))), root)] for root in roots]
    leaves = [[None] * len(scored) for _ in range(T)]
    cand = np.empty((T, nc), dtype=np.intp)
    growing = range(T)
    while growing:
        tried = []  # (tree, node, size, depth, rows held, class counts or total)
        for i in growing:
            stack = stacks[i]
            while stack and unsettled[i]:
                k, n, depth, held, value = stack.pop()
                if classify:
                    stop = sum(map(bool, value)) <= 1
                else:
                    ys = y[i * m : (i + 1) * m][node[i * m : (i + 1) * m] == k]
                    total = np.add.reduce(ys)
                    value = [total / n]
                    stop = np.minimum.reduce(ys) == np.maximum.reduce(ys)
                if held:
                    for r in held:
                        leaves[i][r] = value
                    unsettled[i] -= len(held)
                if stop or n < 2 * min_leaf or depth >= max_depth:
                    continue
                cand[len(tried)] = gens[i].choice(f, size=nc, replace=False)
                tried.append((i, k, n, depth, held, value if classify else total))
                break
        growing = [entry[0] for entry in tried]
        if not tried:
            break
        t_of, k_of, n_of = np.array([entry[:3] for entry in tried]).T
        c = cand[: len(tried)]
        # every (node, candidate) segment's positions, flat
        seg_n = np.repeat(n_of, nc)
        segs = np.repeat(t_of * f, nc) + c.ravel()
        members = order.take(segs, 0)
        mine = np.flatnonzero(node.take(members) == np.repeat(k_of.astype(np.int32), nc)[:, None])
        pos = members.take(mine)
        rank = sorted_keys.take(segs, 0).take(mine)
        start = np.cumsum(seg_n) - seg_n
        at = np.arange(pos.size) - np.repeat(start, seg_n)
        left_n = at + 1.0
        right_n = np.repeat(seg_n, seg_n) - left_n
        invalid = (left_n < min_leaf) | (right_n < min_leaf)
        invalid[:-1] |= rank[:-1] == rank[1:]
        right_n[right_n == 0] = 1  # a segment's last position, invalid
        node_n = n_of * nc
        totals = np.array([entry[5] for entry in tried], dtype=float)
        if classify:
            onehot = y[pos] == np.arange(n_classes)[:, None]
            left = np.cumsum(onehot, axis=1, dtype=float)
            # less the counts before each segment
            left -= np.repeat(left[:, start] - onehot[:, start], seg_n, axis=1)
            right = np.repeat(totals.T, node_n, axis=1)
            right -= left
            score = np.einsum("ij,ij->j", left, left) / left_n
            score += np.einsum("ij,ij->j", right, right) / right_n
        else:
            seg = np.repeat(np.arange(seg_n.size), seg_n)
            block = np.zeros((seg_n.size, n_of.max()))
            block[seg, at] = y[pos]
            left = np.add.accumulate(block, axis=1)[seg, at]
            right = np.repeat(totals, node_n) - left
            score = left * left / left_n
            score += right * right / right_n
        np.copyto(score, -np.inf, where=invalid)
        first = start[::nc]
        best = np.maximum.reduceat(score, first)
        # each node's first maximum in position-major order
        key = np.where(score == np.repeat(best, node_n),
                       at * nc + np.repeat(np.arange(seg_n.size) % nc, seg_n), pos.size * nc)
        split_at, j = np.divmod(np.minimum.reduceat(key, first), nc)
        split = np.flatnonzero(best > -np.inf)
        if not split.size:
            continue
        j, split_at = j[split], split_at[split]
        seg_start = start[split * nc + j]
        last_left = seg_start + split_at
        feat = c[split, j]
        lo, hi = X[row[pos[last_left]], feat], X[row[pos[last_left + 1]], feat]
        thr = (lo + hi) / 2.0
        thr = np.where(thr >= hi, lo, thr)  # the grower's 1-ulp fallback
        n_split = n_of[split]
        child = np.arange(next_id, next_id + 2 * split.size, 2)
        next_id += 2 * split.size
        within = np.arange(n_split.sum()) - np.repeat(np.cumsum(n_split) - n_split, n_split)
        node[pos[within + np.repeat(seg_start, n_split)]] = (
            np.repeat(child, n_split) + (within > np.repeat(split_at, n_split)))
        values = [[None] * split.size] * 2
        if classify:
            left_counts = left[:, last_left].T
            values = left_counts.tolist(), (totals[split] - left_counts).tolist()
        for a, ch, n_left, f_, th, v_left, v_right in zip(
                split.tolist(), child.tolist(), (split_at + 1).tolist(), feat.tolist(),
                thr.tolist(), *values):
            i, _, n, depth, held, _ = tried[a]
            held_left = held_right = ()
            if held:
                # the split rule predict walks: > goes right
                held_left = tuple(r for r in held if scored[r][f_] <= th)
                held_right = tuple(r for r in held if scored[r][f_] > th)
                unsettled[i] += len(held)
            stacks[i] += [(ch, n_left, depth + 1, held_left, v_left),
                          (ch + 1, n - n_left, depth + 1, held_right, v_right)]

    out = np.array(leaves, dtype=float)
    if classify:
        out /= out.sum(axis=2, keepdims=True)
    return out
