"""Pinned planner answers: a change that moves a plan or an objective shows here."""

import hashlib

import numpy as np
import pytest

from edgeplan.evaluation import plan_with_method
from edgeplan.topology import generate_instance

# (method, n, seed) -> (objective, SHA-256 of the plan) on
# generate_instance(n, n, seed), before the planning models carried the
# per-pair linking rows.  The extensive form runs at n = 5 only: its 1,386
# blocks at n = 6 take seconds.  Objectives agree within the default MIP
# gap, since another HiGHS build may stop at another point within it.
PINNED = {
    # the ADR pins date from just before its MILP stopped using HiGHS presolve
    ("adr", 5, 0): (44.40175336703425,
        "deb43bb7e153574cde5ad5915c3cee524d66f6724ab9a0e3384362fc8bf28b92"),
    ("adr", 5, 1): (33.971128002858556,
        "7379f478d92aae36021eda661b6ae2661a18e88f70416c1ca812c9bde3413cd7"),
    ("adr", 6, 0): (51.313594298220735,
        "65a9a4cf2f9a79da46b5330e59f0299d1b589ece60b645ba34b617437271d725"),
    ("adr", 6, 1): (74.82320967697703,
        "81ce24a333ae49a90ed0de5da4584f81c8c492e8d26e6c41af9c2df4ccdae475"),
    ("ccg-duality", 5, 0): (44.401753367034274,
        "deb43bb7e153574cde5ad5915c3cee524d66f6724ab9a0e3384362fc8bf28b92"),
    ("ccg-duality", 5, 1): (33.971128002858556,
        "7379f478d92aae36021eda661b6ae2661a18e88f70416c1ca812c9bde3413cd7"),
    ("ccg-duality", 6, 0): (51.313594298220735,
        "65a9a4cf2f9a79da46b5330e59f0299d1b589ece60b645ba34b617437271d725"),
    ("ccg-duality", 6, 1): (74.82320967697707,
        "81ce24a333ae49a90ed0de5da4584f81c8c492e8d26e6c41af9c2df4ccdae475"),
    ("ccg-kkt", 5, 0): (44.401753367034274,
        "deb43bb7e153574cde5ad5915c3cee524d66f6724ab9a0e3384362fc8bf28b92"),
    ("ccg-kkt", 5, 1): (33.97112800285856,
        "7379f478d92aae36021eda661b6ae2661a18e88f70416c1ca812c9bde3413cd7"),
    ("ccg-kkt", 6, 0): (51.313594298220735,
        "65a9a4cf2f9a79da46b5330e59f0299d1b589ece60b645ba34b617437271d725"),
    ("ccg-kkt", 6, 1): (74.82320967697717,
        "81ce24a333ae49a90ed0de5da4584f81c8c492e8d26e6c41af9c2df4ccdae475"),
    ("det", 5, 0): (3.0064699849838123,
        "47842bbf69f9ab8bbfc002a52bb26686babdb5ac5b6fc16aa106ab61b988883c"),
    ("det", 5, 1): (3.8493347564561815,
        "e9cda074531cbb4e8a58f9b9eec73a09eb8c454daf9164bf712406580896f6db"),
    ("det", 6, 0): (5.437924835456088,
        "48f752d588c7bd432fc582d4862f37c33bea6b55b4aa28fb45ee200783fe57bd"),
    ("det", 6, 1): (6.716595797529142,
        "a4cd16ae7ba0230addff295cab4306b54c33617d34c04f3b4615095ab778483e"),
    ("extensive", 5, 0): (44.40175336703425,
        "deb43bb7e153574cde5ad5915c3cee524d66f6724ab9a0e3384362fc8bf28b92"),
    ("extensive", 5, 1): (33.971128002858556,
        "7379f478d92aae36021eda661b6ae2661a18e88f70416c1ca812c9bde3413cd7"),
    ("so", 5, 0): (21.039149701055216,
        "1af905342f4528e3ec4b26f5e3a8bc3c983a0208710ce41f597d0150037e4f42"),
    ("so", 5, 1): (21.54023052814472,
        "949b6d421018a835c20d1a66c32e29d9c96bd05c4924dbefa91efce76f2a5fb5"),
    ("so", 6, 0): (29.12058286400571,
        "9359ae49969c00ecebedaa93ea317d433dfad8d9ef6a62a415418f64b00ab245"),
    ("so", 6, 1): (38.41272008990925,
        "bf57d2f6bc5e02017cad637f3ff9ce4433dcff71e8abd082ea0e1b5e1ee814af"),
}


def _plan_digest(plan):
    return hashlib.sha256(np.asarray(plan.placement, dtype="<i1").tobytes()
                          + np.asarray(plan.procurement, dtype="<f8").tobytes()).hexdigest()


@pytest.mark.parametrize("method,n,seed", sorted(PINNED))
def test_planner_answer_is_pinned(method, n, seed):
    result = plan_with_method(generate_instance(n, n, seed=seed), method)
    objective, digest = PINNED[method, n, seed]
    assert _plan_digest(result.plan) == digest
    assert result.objective == pytest.approx(objective, rel=1e-6)
