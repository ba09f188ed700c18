"""Every cell of the golden corpus (``tests/golden/corpus.py``) still yields its
committed digest, and one tiny PPO epoch still ends at the committed weights.
A change meant to move either reruns ``scripts/update_golden.py`` and commits
the rewritten ``tests/golden/*.json`` with it.
"""

import json

from repro.scheduler.simulator import Simulator, capture_decisions
from tests.golden import corpus

#: Cells that pin the order in which a stateful estimator (``noisy``,
#: ``first-asks``) is asked about jobs: one per layout with each strategy
#: family.  The simulator asks such an estimator for the reservation when it
#: builds a decision point; deferring that call to the first read, as it does
#: for a stateless estimator, moves each of these (and 486 more cells).
STATEFUL_DRAW_ORDER_CELLS = (
    "scalar/whole101/plain/FCFS/noisy/easy-fcfs",
    "scalar/whole101/fail-requeue/SJF/first-asks/easy-sjf",
    "scalar/frac202/fail-checkpoint/FCFS/noisy/cons-sjf-dall-call",
    "one-group/whole101/plain/FCFS/first-asks/none",
    "partitions/frac202/plain/SJF/first-asks/none",
    "resources/frac202/drain/SJF/noisy/cons-sjf-d3-c2",
)


def test_every_golden_stream_is_unchanged():
    committed = corpus.GOLDEN_FILE.read_text()
    digests = corpus.compute()
    changes = corpus.diff(json.loads(committed), digests)
    not_run = sum(digest == "not run" for digest in digests.values())
    assert not changes, (
        f"{len(changes)} cells changed and {not_run} were not run after a hung cell "
        "(rerun scripts/update_golden.py if the change is meant to move them):\n"
        + "\n".join(changes)
    )
    assert corpus.dumps(digests) == committed  # the bytes the script writes


def test_one_ppo_epoch_ends_at_the_committed_weights():
    moved = corpus.training_moved(corpus.load(corpus.TRAINING_FILE), corpus.training_summary())
    assert not moved, (
        f"the weight statistics of {moved} moved beyond rtol {corpus.TRAINING_RTOL} "
        "(rerun scripts/update_golden.py if the change is meant to move them)"
    )


def test_scalar_cells_match_their_one_group_twins():
    """The scalar machine is the one-group, cpu-only topology: every scalar cell that
    has a one-group twin has its digest (read from the committed file, not rerun)."""
    committed = corpus.load()
    twins = {
        key: twin
        for key in committed
        if key.startswith("scalar/") and (twin := "one-group/" + key.removeprefix("scalar/")) in committed
    }
    drifted = [key for key, twin in twins.items() if committed[key] != committed[twin]]
    assert twins and not drifted, f"{len(drifted)} of {len(twins)} scalar cells differ from their twin"


def test_the_stateful_estimator_draw_order_is_pinned():
    """Each named cell is committed, still yields its digest, and that digest
    hashes the estimator's asks (``a`` lines), so their order is pinned."""
    committed, thunks = corpus.load(), dict(corpus.cells())
    for key in STATEFUL_DRAW_ORDER_CELLS:
        assert thunks[key]() == committed[key]
        jobs, kwargs, priority, estimator_name, make_strategy = thunks[key].args
        estimator = corpus.ESTIMATORS[estimator_name]()
        simulator = Simulator(
            corpus.CPUS, policy=priority, backfill=make_strategy(), estimator=estimator, **kwargs
        )
        capture_decisions(simulator, jobs)
        assert corpus._asks(estimator), key


def test_utilization_is_the_busy_area_the_records_hold():
    """``metrics.utilization``, which no digest hashes, is the busy area the
    records hold over the nameplate capacity up to the last completion.  Cells
    with node failures are left out: a killed run adds busy area no record
    holds."""
    checked = 0
    for key, thunk in corpus.cells():
        _, _, variant, priority, estimator_name, strategy = key.split("/")
        if variant not in ("plain", "drain") or (priority, estimator_name) != ("FCFS", "user"):
            continue
        if strategy not in ("none", "easy-fcfs", "cons-fcfs-dall-call"):
            continue
        jobs, kwargs, priority, estimator_name, make_strategy = thunk.args
        simulator = Simulator(
            corpus.CPUS, policy=priority, backfill=make_strategy(),
            estimator=corpus.ESTIMATORS[estimator_name](), **kwargs,
        )
        result = simulator.run(jobs)
        busy = sum(
            r.job.requested_processors * (r.end_time - r.start_time) for r in result.records
        )
        expected = busy / (max(r.end_time for r in result.records) * corpus.CPUS)
        utilization = result.metrics.utilization
        assert abs(utilization - expected) <= 1e-12 * utilization, (key, utilization, expected)
        checked += 1
    assert checked == 48
