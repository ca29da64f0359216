"""The mutation probe's mutants, as data: `replay_mutants.py` replays them.

Each entry is (file, old text, new text, expected outcome).  The old text
occurs exactly once in the file; the expected outcome is "killed" (some test
fails on the mutant) or "equivalent: <reason>" (no test can fail, and the
reason says why).  A change that adds a refusal, an identity or a fast path
adds its boundary mutant here.  pytest does not collect this module: its
name does not start with `test_`.
"""

FOREST, EXPERIMENTS = "src/forestscope/forest.py", "src/forestscope/experiments.py"
DATASET, STATS = "src/forestscope/dataset.py", "src/forestscope/stats.py"

MUTANTS = (
    # the split step's purity rule: with three classes, a child with no
    # class-0 row is pure only in the class of its lowest row
    (FOREST, "c := 1 if two else row_class[(k0 & -k0).bit_length() - 1]", "c := 1", "killed"),
    (FOREST, "c := 1 if two else row_class[(k1 & -k1).bit_length() - 1]", "c := 1", "killed"),
    (
        FOREST,
        "c = 1 if self.n_classes == 2 else self.row_class[(bits & -bits).bit_length() - 1]",
        "c = 1",
        "killed",
    ),
    (
        FOREST,
        "elif k0 & class0 or (  #",
        "elif (  #",
        "equivalent: a set of class 0 and another meets its lowest row's other_mask too",
    ),
    (
        FOREST,
        "        if bits & self.class_mask[0]:\n            return None\n",
        "",
        "equivalent: a set of class 0 and another meets its lowest row's other_mask too",
    ),
    # the closed-child marker: no algebra's profile of no trees may read as it
    (FOREST, "return ()", "return None", "killed"),
    (FOREST, "if a == () or b == ():", "if b == ():", "killed"),
    (
        FOREST,
        "if b is not None:\n            return self.mul(",
        "if b:\n            return self.mul(",
        "killed",
    ),
    (FOREST, "if a is None:\n                        a, b = b, a", "pass", "killed"),
    (FOREST, "1 + (a or 0) + (b or 0)", "1 + (a or 0)", "killed"),
    # the n-ary split: the fold of a third child and the empty branch's leaf
    (FOREST, "parts[:2] = [mul(parts[0], parts[1], room)]", "parts[:2] = [parts[0]]", "killed"),
    (FOREST, "if kb else tr.majority(tr_bits)", "if kb else 0", "killed"),
    # the room: a key within budget b is below (b + 1) << split_shift
    (FOREST, "if k2 >= left:", "if k2 > left:", "killed"),
    (FOREST, "if room > 0:  # the budget admits this one split", "if room >= 0:", "killed"),
    (
        FOREST,
        "    hard = distinct - 1\n",
        "    hard = distinct\n",
        "equivalent: no consistent tree uses as many splits as there are distinct instances",
    ),
    (
        FOREST,
        "open_bounds.append((table[kb], min(size - 1, (kb & r.inst_mask).bit_count() - 1)))",
        "open_bounds.append((table[kb], size - 1))",
        "equivalent: the same trees, in the same order; only the uncapped walk slows (5x)",
    ),
    # summary identities at their edges
    (FOREST, "if b.misclassified_total > trees * weight:", "if False:", "killed"),
    (FOREST, "if max(hist) > weight:", "if max(hist) > weight + 1:", "killed"),
    # refusals at their edges
    (EXPERIMENTS, "elif leg.n_train < need:", "elif leg.n_train < need - 1:", "killed"),
    (
        EXPERIMENTS,
        "sum(min(config.leaf_coverage, len(rows)) for rows in groups)",
        "sum(config.leaf_coverage for rows in groups)",
        "killed",
    ),
    (
        EXPERIMENTS,
        "if leg.trial_count != n or leg.n_train != n - 1:",
        "if leg.trial_count != n:",
        "killed",
    ),
    (DATASET, "if len(chosen) > n_train:", "if len(chosen) > n_train + 1:", "killed"),
    (
        STATS,
        "        if t.min_size is not None:\n            parts.setdefault",
        "        if t.min_size:\n            parts.setdefault",
        "killed",
    ),
    # a run's files are moved in only when none would meet a directory
    ("src/forestscope/cli.py", "if os.path.isdir(path):", "if False:", "killed"),
    # equivalent rewrites of paths no output depends on
    (
        EXPERIMENTS,
        "chunk = max(1, len(jobs) // (workers * 8))",
        "chunk = 1",
        "equivalent: chunks only batch jobs; results are collected in job order",
    ),
    (
        DATASET,
        "if len(data.runs) == len(keys):  # one row per key",
        "if False:",
        "equivalent: the duplicate-row path counts a one-row-per-key source alike",
    ),
    (
        STATS,
        "        for k, (count, misc) in sorted(pooled.items())\n        if count\n",
        "        for k, (count, misc) in sorted(pooled.items())\n",
        "equivalent: a run never makes an empty path bin",
    ),
    (
        "src/forestscope/tree.py",
        r'_tokens = re.compile(r"[()\[\]:]|[^()\[\]:\s]+").findall',
        r'_tokens = re.compile(r"[()\[\]:]|[^()\[\]:,\s]+").findall',
        "equivalent: no valid token holds a comma",
    ),
)
