"""Test oracles: slow, exact solvers that the schedulers are checked against.

``benchmarks`` holds the matrix-scoring round scheduler, ``matching``
Hungarian max-weight matching (scipy) and the exact per-interval
configuration search, ``exhaustive`` the brute-force optimum of tiny
instances, and ``rates`` the reference PHY rate that durations are
checked against. No code under ``src/`` imports them.
"""
