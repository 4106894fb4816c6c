"""Test oracles: slow, exact solvers that the schedulers are checked against.

``benchmarks`` holds the matrix-scoring round scheduler, ``matching``
Hungarian max-weight matching (scipy) and the exact per-interval
configuration search, ``exhaustive`` the brute-force optimum of tiny
instances, ``rates`` the reference PHY rate that durations are checked
against, and ``slotted`` the per-packet slotted matcher. No code under
``src/`` imports them.
"""
