"""Input generators for the benchmark workloads.

Every input the program sees is made here from a seed, so one seed always
gives the same bytes and the same objects. Nothing in this module imports
``netergm``: the CLI workload must not pay for the package import while it
sets up.
"""

from __future__ import annotations

import csv
import os

import numpy as np

# The participant vocabulary the attribute loader validates against.
LEVELS = {
    "region": ("International", "Midwest", "Northeast", "South", "West"),
    "country": ("Non-US", "US"),
    "gender": ("Female", "Male"),
    "role": ("Administrator", "Other", "Teacher", "Technology/Media Staff"),
    "grade": ("Generalist", "Post-Secondary", "Primary", "Secondary"),
    "experience": ("11-20", "20+", "<=10"),
    "expert": ("No", "Yes"),
    "willing": ("No", "Yes"),
    "group": ("AC", "DL", "M", "N", "PD", "PS"),
    "facilitator": ("No", "Yes"),
}

PARTICIPANTS = 80
FACILITATORS = 3
DAYS = 72
QUARTERS = ((1, 18), (19, 36), (37, 55), (56, 72))
# In each quarter a different few participants send and receive nothing and
# a few others exchange exactly one message, as in a real course. Without
# both, the isolates column can separate the ties from the non-ties: its
# coefficient then drifts for about 17 extra Newton iterations, on some
# seeds' bootstrap replicates and not on others'.
SITTING_OUT = 3
LURKING = 3


def balanced_columns(rng, n):
    """Every column of ``LEVELS`` but ``facilitator``, each level held by
    n / levels nodes in a random order. Balanced levels keep the rarest
    level's size from varying with the seed: a level whose within-level
    ties vanish from a bootstrap replicate makes its nodematch coefficient
    drift for about 16 extra Newton iterations."""
    return {
        name: [str(v) for v in rng.permutation(np.resize(np.array(levels), n))]
        for name, levels in LEVELS.items()
        if name != "facilitator"
    }


def write_course_files(root, seed):
    """Write ``events.csv`` and ``attributes.csv`` for one synthetic course.

    80 participants and 3 facilitators exchange about 900 messages over 72
    days: a random spanning backbone keeps the participants connected, 800
    random messages fill it in, facilitators and self-messages are mixed in
    for the loader to drop, and one message is pinned inside each quarter so
    every panel is non-empty. In each quarter ``SITTING_OUT`` participants
    are silent and ``LURKING`` others exchange one message. Returns the two
    paths.
    """
    rng = np.random.default_rng([seed, 1])
    people = [f"p{k:03d}" for k in range(1, PARTICIPANTS + 1)]
    staff = [f"f{k:02d}" for k in range(1, FACILITATORS + 1)]
    quiet = SITTING_OUT + LURKING
    away = rng.choice(PARTICIPANTS, size=(len(QUARTERS), quiet), replace=False)

    def active(day, *who):
        q = next(k for k, (lo, hi) in enumerate(QUARTERS) if lo <= day <= hi)
        return not any(p in away[q] for p in who)

    def day_for(*who):
        while True:
            day = int(rng.integers(1, DAYS + 1))
            if active(day, *who):
                return day

    columns = balanced_columns(rng, len(people) + len(staff))
    columns["facilitator"] = ["No"] * len(people) + ["Yes"] * len(staff)
    attrs_path = os.path.join(root, "attributes.csv")
    with open(attrs_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", *LEVELS])
        for k, pid in enumerate(people + staff):
            writer.writerow([pid, *(columns[name][k] for name in LEVELS)])

    rows = []
    order = rng.permutation(PARTICIPANTS)
    for k in range(1, PARTICIPANTS):
        i, j = order[k], order[rng.integers(0, k)]
        rows.append((people[i], people[j], day_for(i, j)))
    for _ in range(800):
        i, j = rng.choice(PARTICIPANTS, size=2, replace=False)
        rows.append((people[i], people[j], day_for(i, j)))
    for _ in range(30):
        f = staff[rng.integers(0, FACILITATORS)]
        p = rng.integers(0, PARTICIPANTS)
        day = day_for(p)
        rows.append((f, people[p], day) if rng.random() < 0.5 else (people[p], f, day))
    for _ in range(5):
        p = rng.integers(0, PARTICIPANTS)
        rows.append((people[p], people[p], day_for(p)))
    for day in (5, 25, 45, 65):
        while True:
            i, j = rng.choice(PARTICIPANTS, size=2, replace=False)
            if active(day, i, j):
                break
        rows.append((people[i], people[j], day))
    for (lo, hi), lurkers in zip(QUARTERS, away[:, SITTING_OUT:]):
        for p in lurkers:
            day = int(rng.integers(lo, hi + 1))
            while True:
                other = rng.integers(0, PARTICIPANTS)
                if active(day, other):
                    break
            pair = (people[p], people[other])
            rows.append((*pair, day) if rng.random() < 0.5 else (*pair[::-1], day))

    events_path = os.path.join(root, "events.csv")
    with open(events_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sender_id", "receiver_id", "day"])
        writer.writerows(rows)
    return events_path, attrs_path


def random_network(seed, n, mean_degree):
    """Edge pairs of a directed random graph plus a node attribute table.

    Each ordered pair is tied independently with probability
    ``mean_degree / (n - 1)``. The table's columns come from
    ``balanced_columns``. Returns ``(pairs, ids, columns)`` with pairs in
    row-major order.
    """
    rng = np.random.default_rng([seed, 2])
    a = rng.random((n, n)) < mean_degree / (n - 1)
    np.fill_diagonal(a, False)
    ii, jj = np.nonzero(a)
    pairs = list(zip(ii.tolist(), jj.tolist()))
    ids = tuple(f"v{k:04d}" for k in range(n))
    columns = {name: tuple(vals) for name, vals in balanced_columns(rng, n).items()}
    return pairs, ids, columns
