"""One end-to-end, per-layer benchmark of the SPATIAL stack.

The harness drives the real code from outside, through public functions
only, on five workloads (``serve-zipf``, ``serve-unique``,
``monitor-ingest``, ``cluster-sim``, ``capacity-sim``).  An untraced run
reports the end-to-end metrics declared in the repository's
``BENCHMARK.json``; a separate traced run reports the per-layer table.

Run it from the repository root::

    python -m benchmarks.e2e run --workload serve-zipf --seed 0 --seconds 10
    python -m benchmarks.e2e run --repeats 10 --out results.json
    python -m benchmarks.e2e compare parent.json change.json

See ``benchmarks/e2e/README.md`` for the workload and metric glossary.
Importing this package loads nothing heavy: numpy and ``repro`` are
imported only once a run starts, after the thread-count environment is
pinned.
"""
