"""The forest's scorer: the leaf values that rows reach in trees grown in
lockstep, bit for bit those of `forest._grow_trees`'s trees.

A task holds one table and several jobs, each naming its training rows and
its rows to score by index. Every tree keeps its own generator, bootstrap
draw (of its job's training rows) and right-subtree-first depth-first
order. In each step every tree still growing pops its own stack, settling
leaves, up to the next node it tries to split, and draws that node's
candidates; one pass of numpy calls then scores the candidate splits of
those nodes together, in chunks of bounded memory. The table's columns are dense-ranked once, and ranks
restricted to any rows keep those rows' order and ties, so one stable sort
of a tree's ranks by bootstrap position is the tie order of the grower's
stable sort. A node's rows in a feature's order are the presorted positions
that sit in the node: one flat segment per (node, candidate). Class counts
are exact integers, so integer prefix sums give every segment's left counts,
and they become floats only to be divided by the sides' sizes; left sums of
targets accumulate along the rows of a zero-padded block, as the grower's
do, and a node's total target is one add.reduce over its targets in
bootstrap order. The split, first maximum in position-major order,
threshold and stop rules are the grower's.
"""

import numpy as np

from .forest import _packed

# a step scores its nodes in chunks: a node scans nc * M (candidate,
# position) pairs and scores nc * n of them, a scored pair holding about
# five scanned ones' temporaries, and a chunk's scanned pairs plus five per
# scored one stay within _STEP_COST, which keeps them under 2 MB however
# many trees a task grows (32 roots a chunk on classify's trees). Against
# chunks bounded by scanned pairs alone, classify's 126 leave-one-out jobs
# took 5-9% less CPU at the same tracemalloc peak. The presort works through
# its trees in blocks of _STEP_COST // 6 (feature, position) pairs.
_STEP_COST = 6 << 14


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


def _score_trees(mode, cfg, n_candidates, n_classes, X, y, jobs, tree_ids):
    """Per job `(train, key, rows, classes)` of the table (X, y), the leaf
    values that the rows X[rows] reach in the trees tree_ids of the job
    (X[train], y[train], key), one (trees, rows, k) array: k is the job's
    classes, given or, if None, inferred from its labels as fit infers
    them, or 1 in regress mode. The other arguments are those of fit's
    tasks, n_classes those of the table, 0 in regress mode. A tree grows
    only until its rows sit in leaves: a node it has not grown then would
    only draw later from its generator."""
    classify = n_classes > 0
    f = X.shape[1]
    min_leaf, nc = cfg.min_leaf, n_candidates
    ks = [(k or int(y[train].max()) + 1) if classify else 1 for train, _, _, k in jobs]
    # the grown trees, job by job: (job, generator); a job with no rows to
    # score grows none
    grown = [(j, np.random.default_rng((*key, t)))
             for j, (_, key, rows, _) in enumerate(jobs) if len(rows) for t in tree_ids]
    out = [np.zeros((len(tree_ids), 0, k)) for k in ks]
    if not grown:
        return out
    T = len(grown)
    size = np.array([len(jobs[j][0]) for j, _ in grown], dtype=np.intp)
    M = size.max()
    max_depth = M if cfg.max_depth is None else cfg.max_depth
    # tree i's bootstrap rows of X at flat positions i * M + p, padded to M
    # positions that sit in no node
    row = np.zeros((T, M), dtype=np.intp)
    for i, (j, gen) in enumerate(grown):
        train = jobs[j][0]
        row[i, : len(train)] = train[gen.integers(0, len(train), size=len(train))]
    valid = np.arange(M) < size[:, None]
    # row t * f + c of `order` is tree t's flat positions in feature c's order
    ranks = _dense_ranks(X)
    order = np.empty((T, f, M), dtype=np.int32)
    sorted_keys = np.empty((T, f, M), dtype=ranks.dtype)
    per_block = max(1, _STEP_COST // 6 // (f * M))
    for lo in range(0, T, per_block):
        keys = ranks[:, row[lo : lo + per_block]].swapaxes(0, 1)
        by_key = keys.argsort(axis=2, kind="stable")
        sorted_keys[lo : lo + per_block] = np.sort(keys, axis=2, kind="stable")
        np.add(by_key, np.arange(lo * M, (lo + len(keys)) * M, M)[:, None, None],
               out=order[lo : lo + per_block], casting="unsafe")
    order = order.reshape(T * f, M)
    sorted_keys = sorted_keys.reshape(T * f, M)
    row = row.ravel()
    y = y[row]
    node = np.where(valid, 0, -1).astype(np.int32).ravel()
    next_id = 1
    roots = [None] * T
    # class counts never exceed M, nor the sums of their squares M * M
    counts = np.int32 if M * M < 2**31 else np.int64
    if classify:
        labels = np.eye(n_classes, dtype=bool)[y]  # one-hot, (positions, classes)
        tree_of = np.repeat(np.arange(0, T * n_classes, n_classes), M)
        roots = np.bincount((tree_of + y)[valid.ravel()],
                            minlength=T * n_classes).reshape(T, -1).tolist()
    # per job, its rows to score; a stack entry: (node, size, depth, rows
    # held, class counts in classify mode)
    scored = [X[rows].tolist() for _, _, rows, _ in jobs]
    unsettled = [len(scored[j]) for j, _ in grown]
    stacks = [[(0, n, 0, tuple(range(u)), root)]
              for n, u, root in zip(size.tolist(), unsettled, roots)]
    leaves = [[None] * u for u in unsettled]
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
                    ys = y[i * M : (i + 1) * M][node[i * M : (i + 1) * M] == k]
                    total = np.add.reduce(ys)
                    value = [total / n]
                    stop = np.minimum.reduce(ys) == np.maximum.reduce(ys)
                if held:
                    for r in held:
                        leaves[i][r] = value
                    unsettled[i] -= len(held)
                if stop or n < 2 * min_leaf or depth >= max_depth:
                    continue
                cand[len(tried)] = grown[i][1].choice(f, size=nc, replace=False)
                tried.append((i, k, n, depth, held, value if classify else total))
                break
        growing = [entry[0] for entry in tried]
        first_try = 0
        for part in _packed(tried, lambda entry: nc * (M + 5 * entry[2]), _STEP_COST):
            t_of, k_of, n_of = np.array([entry[:3] for entry in part], dtype=np.int32).T
            c = cand[first_try : first_try + len(part)]
            first_try += len(part)
            # every (node, candidate) segment's positions, flat
            seg_n = np.repeat(n_of, nc)
            segs = np.repeat(t_of * f, nc) + c.ravel()
            members = order.take(segs, 0)
            mine = np.flatnonzero(
                node.take(members) == np.repeat(k_of, nc)[:, None])
            pos = members.take(mine)
            rank = sorted_keys.take(segs, 0).take(mine)
            start = np.cumsum(seg_n, dtype=np.int32) - seg_n
            at = np.arange(pos.size, dtype=np.int32) - np.repeat(start, seg_n)
            # the sides' sizes at each split position, integers divided as floats
            left_n = at + 1
            right_n = np.repeat(seg_n, seg_n) - left_n
            invalid = np.minimum(left_n, right_n) < min_leaf
            invalid[:-1] |= rank[:-1] == rank[1:]
            np.maximum(right_n, 1, out=right_n)  # a segment's last position, invalid
            node_n = n_of * nc
            totals = np.array([entry[5] for entry in part], dtype=counts if classify else float)
            if classify:
                onehot = labels.take(pos, 0)
                left = np.cumsum(onehot, axis=0, dtype=counts).T
                # less the counts before each segment
                left = left - np.repeat(left[:, start] - onehot.T[:, start], seg_n, axis=1)
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
            score = np.where(invalid, -np.inf, score)
            # each node's first maximum in position-major order: its best
            # score, each candidate's first position reaching it, and the
            # first (position, candidate) pair of those
            best = np.maximum.reduceat(score, start).reshape(-1, nc).max(axis=1)
            hit = score == np.repeat(best, node_n)
            first_at = np.minimum.reduceat(np.where(hit, at, pos.size), start)
            split_at, j = np.divmod(
                (first_at.reshape(-1, nc) * nc + np.arange(nc)).min(axis=1), nc)
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
                i, _, n, depth, held, _ = part[a]
                held_left = held_right = ()
                if held:
                    # the split rule predict walks: > goes right
                    rows = scored[grown[i][0]]
                    held_left = tuple(r for r in held if rows[r][f_] <= th)
                    held_right = tuple(r for r in held if rows[r][f_] > th)
                    unsettled[i] += len(held)
                stacks[i] += [(ch, n_left, depth + 1, held_left, v_left),
                              (ch + 1, n - n_left, depth + 1, held_right, v_right)]

    tree_leaves = iter(leaves)
    for j, ((_, _, rows, _), k) in enumerate(zip(jobs, ks)):
        if len(rows):
            values = np.array([next(tree_leaves) for _ in tree_ids], dtype=float)
            if classify:
                # the task's classes, exact counts, past the job's own are 0
                values = values[..., :k] / values.sum(axis=2, keepdims=True)
            out[j] = values
    return out
