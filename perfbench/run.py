#!/usr/bin/env python3
"""Benchmark of cognatekit: the experiment, retrieval and classify workloads.

    python3 perfbench/run.py --workload retrieval --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, each in its own process

Run from the repository root (or any checkout of it); the program is
imported from ``src/``.  Each workload is a single client in a closed
loop.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` a traced
run's per-layer metrics (see ``tracer.py``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``NOTES.md`` explains the workloads and metrics.

The content whose results are checked is fixed (built from the
construction seeds below), so every run is compared with
``reference.json``.  ``--seed`` chooses the order in which the program
receives it: dataset and lexicon line order, query and pair order.  The
program promises results independent of that order.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
sys.dont_write_bytecode = True  # leave no caches in the checkout
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import tracer as tracing  # noqa: E402

WORKLOADS = ("experiment", "retrieval", "classify")
HARD_SEED = 19      # dataset construction (the test suite's default)
LEXICON_SEED = 29   # syllable words padding the retrieval lexicon
STREAM_SEED = 1013  # classify pair stream, block b uses STREAM_SEED + b

SIZES = {
    "full": {
        "experiment_pairs": 150,   # cognates, and as many non-cognates
        "lexicon_words": 8000,
        "classify_pairs": 1000,    # cognates, and as many non-cognates
        "block_pairs": 1000,       # classify ops between deadline checks
        "quality_blocks": 10,      # classify blocks checked bit for bit
        "quality_cycles": 2,       # retrieval cycles checked and scored
        "latency_cycles": 8,       # retrieval cycles giving the latency percentiles
        "oracle_per_kind": 2,      # retrieval queries per kind given to the oracle
        "probe_queries": 20,       # classify model rank probe (mrr)
        "setup_reps": {"experiment": 201, "retrieval": 5, "classify": 3},
    },
    "tiny": {
        "experiment_pairs": 20,
        "lexicon_words": 400,
        "classify_pairs": 40,
        "block_pairs": 40,
        "quality_blocks": 2,
        "quality_cycles": 1,
        "latency_cycles": 2,
        "oracle_per_kind": 1,
        "probe_queries": 4,
        "setup_reps": {"experiment": 3, "retrieval": 2, "classify": 2},
    },
}

# Retrieval's fixed query mix, one cycle: 12 raw-ranker queries (4 each),
# 7 combined-scorer queries (the CLI `rank --model` path) and 1 xdice.
MIX = (
    "bm25", "combined", "dirichlet", "tfidf", "combined",
    "bm25", "dirichlet", "combined", "tfidf", "xdice",
    "bm25", "combined", "dirichlet", "tfidf", "combined",
    "bm25", "dirichlet", "combined", "tfidf", "combined",
)
TOP_K = 10
GROUP = 100  # classify ops between two host probes

END_TO_END = {
    "setup_s": "s", "run_s": "s", "ops_per_s": "1/s", "latency_ms_p50": "ms",
    "latency_ms_p90": "ms", "latency_ms_p99": "ms", "peak_rss_mb": "MB",
    "success_rate": "ratio", "accuracy": "ratio", "mrr": "ratio",
}
PER_LAYER = {
    "shingling.shingle.calls": "count",
    "shingling.shingle.self_s": "s",
    "shingling.shingle.calls_per_distinct_word": "ratio",
    "ranking.build_index.s": "s",
    "ranking.load_lexicon.s": "s",
    "ranking.rank.bm25.ms_p50": "ms",
    "ranking.rank.dirichlet.ms_p50": "ms",
    "ranking.rank.tfidf.ms_p50": "ms",
    "ranking.rank.xdice.ms_p50": "ms",
    "ranking.rank.combined.ms_p50": "ms",
    "ranking.rank.calls": "count",
    "ranking.rank.docs_scored_per_query": "count",
    "ranking.rank.results_per_doc_scored": "ratio",
    "ranking.sim.calls": "count",
    "ranking.sim.self_s": "s",
    "error_model.build_graph.calls": "count",
    "error_model.build_graph.self_s": "s",
    "error_model.build_graph.calls_per_distinct_pair": "ratio",
    "error_model.transformation_score.calls": "count",
    "error_model.transformation_score.self_s": "s",
    "error_model.train_error_model.s": "s",
    "scorer.score_candidates.self_s": "s",
    "scorer.combined_score.calls": "count",
    "scorer.combined_score.self_s": "s",
    "scorer.learn_threshold.calls": "count",
    "scorer.learn_threshold.self_s": "s",
    "scorer.train_scorer.s": "s",
    "evaluation.tune.mrr.s": "s",
    "evaluation.tune.accuracy.s": "s",
    "evaluation.tune.self_s": "s",
    "evaluation.eval_mrr.s": "s",
    "evaluation.eval_classification.s": "s",
    "evaluation.load_dataset.s": "s",
    "persistence.load_model.s": "s",
    "persistence.save_model.s": "s",
    "trace.overhead_ratio": "ratio",
}


def import_program():
    """Import cognatekit from this checkout's ``src/`` and nowhere else."""
    init = SRC / "cognatekit" / "__init__.py"
    if not init.is_file():
        print(f"perfbench: {init} not found; run from a checkout of the repository",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import cognatekit
    if Path(cognatekit.__file__).resolve() != init.resolve():
        print(f"perfbench: imported {cognatekit.__file__}, expected {init}", file=sys.stderr)
        sys.exit(2)
    import cognatekit.cli
    return cognatekit


def percentile(values, p):
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def quiet_main(ck, argv):
    """``cognatekit.cli.main`` in process, its stdout discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return ck.cli.main([str(a) for a in argv])


class HostSpeed:
    """Host speed, read from a fixed pure-Python probe, to scale timings by.

    On a 2-vCPU Firecracker guest (Intel Xeon, Python 3.11.7) each vCPU
    ran in one of two or three speed regimes up to 2x apart, switching
    every one to five seconds.  CPU time tracked wall time within 3%, so
    this is not steal: co-tenants share the physical core.  Which regimes
    a run met moved raw medians by 10-30% between runs, more than any
    bound here.  So every timing metric is a measured wall time scaled by
    ``REFERENCE_S`` over the mean time of the probes taken during it or
    within ``PAD_S`` of it: the time the work takes while the probe runs
    in ``REFERENCE_S``, that guest's fast regime.  A change to the program
    moves the scaled time as it moves the wall time; the probe does not
    call the program.
    """

    REFERENCE_S = 150e-6
    PAD_S = 0.1  # short next to the regimes, long enough to average ~10 probes
    KEYS = tuple(str(i) for i in range(97))

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (midpoint, probe seconds)
        self._mids: list[float] = []

    def probe(self) -> None:
        start = time.perf_counter()
        counts: dict = {}
        for i in range(1500):
            key = self.KEYS[i % 97]
            counts[key] = counts.get(key, 0) + 1
        took = time.perf_counter() - start
        self.samples.append((start + took / 2, took))

    @contextlib.contextmanager
    def sampling(self, period=0.02):
        """Probe every ``period`` seconds from a thread while the block runs."""
        stop = threading.Event()

        def loop():
            while not stop.wait(period):
                self.probe()

        self.probe()
        thread = threading.Thread(target=loop, daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()
            self.probe()

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` seconds scaled to the reference speed."""
        if len(self._mids) != len(self.samples):
            self.samples.sort()
            self._mids = [mid for mid, _ in self.samples]
        lo = bisect.bisect_left(self._mids, start - self.PAD_S)
        hi = bisect.bisect_right(self._mids, end + self.PAD_S)
        if hi == lo:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self._mids))
        probe_s = statistics.fmean(took for _, took in self.samples[lo:hi])
        return (end - start) * self.REFERENCE_S / probe_s

    def median_probe_s(self) -> float:
        return statistics.median(took for _, took in self.samples)


def timed_setups(reps, setup, speed):
    """Run ``setup`` ``reps`` times; the median scaled time and the last result."""
    times, state = [], None
    for _ in range(reps):
        gc.collect()
        start = time.perf_counter()
        state = setup()
        times.append((start, time.perf_counter()))
    return statistics.median(speed.scaled(*span) for span in times), state


class Checks:
    """Ops attempted and failed; an op fails if it raises or is wrong."""

    def __init__(self, reference, oracle_tamper=None):
        self.reference = reference
        self.oracle_tamper = oracle_tamper
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, count, why):
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(why)

    def expect(self, key, observed):
        """One op's output against the reference; no reference checks nothing."""
        if self.reference is not None and self.reference.get(key) != observed:
            self.fail(1, f"{key}: {observed!r} differs from the reference")

    def expect_each(self, key, observed: list):
        """One output per op, in canonical op order, against the reference."""
        if self.reference is None:
            return
        want = self.reference.get(key) or []
        wrong = sum(a != b for a, b in zip(observed, want)) + abs(len(observed) - len(want))
        if wrong:
            self.fail(wrong, f"{key}: {wrong} ops differ from the reference")


# ---------------------------------------------------------------------------
# experiment: `cognatekit eval` on 150+150 hard pairs


def experiment(ck, work, seed, seconds, size, checks, tracer):
    n = size["experiment_pairs"]
    dataset = work / "experiment.tsv"
    gen.write_dataset(dataset, gen.shuffled(gen.hard_pairs(n, n, HARD_SEED), seed))
    report_path = work / "report.json"
    argv = ["eval", "--dataset", dataset, "--out", report_path]

    def setup():
        return ck.load_dataset(str(dataset))

    def one_eval():
        gc.collect()
        checks.attempted += 1
        start = time.perf_counter()
        try:
            code = quiet_main(ck, argv)
        except Exception as exc:  # a raising op is a failed op
            code = exc
        elapsed = (start, time.perf_counter())
        if code != 0:
            checks.fail(1, f"eval failed: {code!r}")
            return elapsed, None
        result = json.loads(report_path.read_text(encoding="utf-8"))["results"]
        ranks = result["per_query_ranks"]
        hyper = json.loads(json.dumps(result["hyperparameters"]))
        for part in ("classification", "ranking"):
            hyper[part].pop("cv_score", None)  # summation order may change it
        observed = {
            "accuracy": result["accuracy"],
            "mrr": result["mrr"],
            "per_query_ranks": ranks,
            "hyperparameters": hyper,
        }
        wrong = len(ranks) == 0 or any(r < 1 for r in ranks)
        wrong = wrong or abs(result["mrr"] - sum(1.0 / r for r in ranks) / len(ranks)) > 1e-12
        if wrong:
            checks.fail(1, "report is inconsistent")
        else:
            checks.expect("report", observed)
        return elapsed, observed

    if tracer is not None:
        return traced_unit(tracer, setup, lambda _: one_eval())

    speed = HostSpeed()
    spans, observed = [], None
    with speed.sampling():
        setup_s, _ = timed_setups(size["setup_reps"]["experiment"], setup, speed)
        deadline = time.perf_counter() + seconds
        while not spans or time.perf_counter() < deadline:
            span, outcome = one_eval()
            spans.append(span)
            if outcome is not None:
                if observed is not None and outcome != observed:
                    checks.fail(1, "two evals of one dataset disagree")
                observed = outcome
    observed = observed or {"accuracy": 0.0, "mrr": 0.0}
    times = [speed.scaled(*span) for span in spans]
    return {
        "setup_s": setup_s,
        "run_s": statistics.median(times),
        "ops_per_s": len(times) / sum(times),
        "latency_ms_p50": statistics.median(times) * 1e3,
        "latency_ms_p90": percentile(times, 90) * 1e3,
        "latency_ms_p99": percentile(times, 99) * 1e3,
        "accuracy": observed["accuracy"],
        "mrr": observed["mrr"],
        "observed": {"report": observed},
        "inputs": {"pairs": 2 * n, "evals": len(times),
                   "unscaled_run_s": statistics.median(e - b for b, e in spans),
                   "median_probe_s": speed.median_probe_s()},
    }


# ---------------------------------------------------------------------------
# retrieval: top-10 queries over an 8,000-word lexicon


def retrieval(ck, work, seed, seconds, size, checks, tracer):
    n = size["experiment_pairs"]
    pairs = gen.hard_pairs(n, n, HARD_SEED)
    dataset = work / "retrieval.tsv"
    gen.write_dataset(dataset, gen.shuffled(pairs, seed))
    model = work / "model.json"
    if quiet_main(ck, ["train", "--dataset", dataset, "--out", model, "--no-tune"]) != 0:
        raise RuntimeError("preparing the retrieval model failed")
    targets = [t for _, t, _ in pairs]
    words = gen.syllable_lexicon(size["lexicon_words"], targets, LEXICON_SEED)
    lexicon = work / "lexicon.txt"
    gen.write_lexicon(lexicon, gen.shuffled(words, seed))
    queries = [(s, t) for s, t, label in pairs if label]
    raw = {kind: ck.RankerParams(kind) for kind in ("bm25", "dirichlet", "tfidf", "xdice")}

    def setup():
        scorer, _ = ck.load_model(str(model))
        index = ck.build_index(ck.load_lexicon(str(lexicon)), scorer.shingler_config)
        return index, scorer.with_config(normalization="per_query_minmax")

    def cycle_ops(c):
        return [(queries[(len(MIX) * c + j) % len(queries)], MIX[j]) for j in range(len(MIX))]

    def run_cycle(c, state, spans=None):
        """One cycle of the mix in a seeded order; results in canonical order.

        Appends each op's ``(start, end)`` to ``spans``."""
        index, combined = state
        ops = cycle_ops(c)
        results = [None] * len(ops)
        gc.collect()
        for j in gen.shuffled(range(len(ops)), seed * 7919 + c):
            (word, _), kind = ops[j]
            checks.attempted += 1
            start = time.perf_counter()
            try:
                if kind == "combined":
                    results[j] = ck.rank(word, index, scorer=combined, k=TOP_K)
                else:
                    results[j] = ck.rank(word, index, params=raw[kind], k=TOP_K)
            except Exception as exc:  # a raising op is a failed op
                checks.fail(1, f"rank({word!r}, {kind}) raised {exc!r}")
                continue
            if spans is not None:
                spans.append((start, time.perf_counter()))
        return ops, results

    def check_quality(state, ops, results):
        ranks = [rank_of(result, target) for ((_, target), _), result in zip(ops, results)]
        checks.expect_each("ranks", ranks)
        check_oracle(ck, state, ops, results, size["oracle_per_kind"], checks)
        return ranks

    if tracer is not None:
        def unit_ops(state):
            ops, results = [], []
            for c in range(size["quality_cycles"]):
                cycle, got = run_cycle(c, state)
                ops += cycle
                results += got
            check_quality(state, ops, results)

        return traced_unit(tracer, setup, unit_ops)

    speed = HostSpeed()
    cycles: list[list[tuple]] = []
    ops, results = [], []
    with speed.sampling():
        setup_s, state = timed_setups(size["setup_reps"]["retrieval"], setup, speed)
        deadline = time.perf_counter() + seconds
        least = max(size["quality_cycles"], size["latency_cycles"])
        while len(cycles) < least or time.perf_counter() < deadline:
            spans: list[tuple] = []
            cycle, got = run_cycle(len(cycles), state, spans)
            if len(cycles) < size["quality_cycles"]:
                ops += cycle
                results += got
            cycles.append(spans)
    ranks = check_quality(state, ops, results)
    cycle_s = [sum(speed.scaled(*span) for span in spans) for spans in cycles]
    # Percentiles over a fixed prefix, so the tail holds the same queries
    # in every run (xdice time depends on the query word).
    latency = [speed.scaled(*span) * 1e3
               for spans in cycles[:size["latency_cycles"]] for span in spans]
    scored = [1.0 / r if r else 0.0 for r in ranks]
    return {
        "setup_s": setup_s,
        "run_s": statistics.median(cycle_s),
        "ops_per_s": sum(map(len, cycles)) / sum(cycle_s),
        "latency_ms_p50": statistics.median(latency),
        "latency_ms_p90": percentile(latency, 90),
        "latency_ms_p99": percentile(latency, 99),
        "accuracy": sum(r == 1 for r in ranks) / len(ranks),
        "mrr": sum(scored) / len(scored),
        "observed": {"ranks": ranks},
        "inputs": {"lexicon_words": len(words), "queries": sum(map(len, cycles)),
                   "cycles": len(cycles), "latency_samples": len(latency),
                   "median_probe_s": speed.median_probe_s()},
    }


def check_oracle(ck, state, ops, results, per_kind, checks):
    """Brute force: score every document through the public ``sim`` (raw
    rankers) or ``score_candidates`` (combined) and order by the tie rule
    of ``order_scored``: score descending, then word, then position."""
    index, combined = state
    words = [w for w, _ in index.docs]
    taken = dict.fromkeys(set(MIX), 0)
    for ((word, _), kind), result in zip(ops, results):
        if taken[kind] >= per_kind or result is None:
            continue
        taken[kind] += 1
        query = ck.shingle(word, index.config)
        if kind == "combined":
            scores = combined.score_candidates(query, index)
        else:
            params = ck.RankerParams(kind)
            scores = [ck.sim(query, doc, index, params) for _, doc in index.docs]
        order = sorted(range(len(words)), key=lambda i: (-scores[i], words[i], i))[:TOP_K]
        expected = [(words[i], scores[i]) for i in order]
        if checks.oracle_tamper is not None:
            expected = checks.oracle_tamper(expected)
        if list(result) != expected:
            checks.fail(1, f"rank({word!r}, {kind}) differs from the brute-force oracle")


# ---------------------------------------------------------------------------
# classify: train on 1000+1000 pairs, then single-pair decisions


def classify(ck, work, seed, seconds, size, checks, tracer):
    n = size["classify_pairs"]
    pairs = gen.hard_pairs(n, n, HARD_SEED)
    dataset = work / "classify.tsv"
    gen.write_dataset(dataset, gen.shuffled(pairs, seed))
    model = work / "model.json"
    half = size["block_pairs"] // 2

    def setup():
        if quiet_main(ck, ["train", "--dataset", dataset, "--out", model]) != 0:
            raise RuntimeError("train failed")
        return ck.load_model(str(model))[0]

    def run_block(b, scorer, groups=None, speed=None):
        """One block of the stream in a seeded order; decisions in canonical order.

        With ``speed``, probes the host between groups of ``GROUP`` ops and
        appends each group's ``(start, end, per-op ns)`` to ``groups``."""
        block = gen.hard_pairs(half, half, STREAM_SEED + b)
        decisions = [None] * len(block)
        order = gen.shuffled(range(len(block)), seed * 7919 + b)
        gc.collect()
        for g in range(0, len(order), GROUP):
            if speed:
                speed.probe()
            latencies = []
            start = time.perf_counter()
            for j in order[g:g + GROUP]:
                source, target, _ = block[j]
                checks.attempted += 1
                t0 = time.perf_counter_ns()
                try:
                    decisions[j] = scorer.classify(source, target)
                except Exception as exc:  # a raising op is a failed op
                    checks.fail(1, f"classify({source!r}, {target!r}) raised {exc!r}")
                    continue
                latencies.append(time.perf_counter_ns() - t0)
            if speed:
                groups.append((start, time.perf_counter(), latencies))
        if speed:
            speed.probe()
        return block, decisions

    def quality(scorer):
        labels, decisions = [], []
        for b in range(size["quality_blocks"]):
            block, got = run_block(b, scorer)
            labels += [label for _, _, label in block]
            decisions += got
        return labels, decisions

    def check_quality(labels, decisions):
        bits = "".join("1" if d else "0" for d in decisions)
        checks.expect_each("decisions", bits)
        return bits

    if tracer is not None:
        return traced_unit(tracer, setup, lambda scorer: check_quality(*quality(scorer)))

    speed = HostSpeed()
    with speed.sampling():
        setup_s, scorer = timed_setups(size["setup_reps"]["classify"], setup, speed)
    # Ops of ~60 us would feel the sampling thread's pauses: probe between groups.
    groups: list[tuple] = []
    labels, decisions = [], []
    deadline = time.perf_counter() + seconds
    b = 0
    while b < size["quality_blocks"] or time.perf_counter() < deadline:
        block, got = run_block(b, scorer, groups, speed)
        if b < size["quality_blocks"]:
            labels += [label for _, _, label in block]
            decisions += got
        b += 1
    bits = check_quality(labels, decisions)
    probe_ranks = rank_probe(ck, scorer, pairs, size["probe_queries"])
    checks.expect_each("probe_ranks", probe_ranks)
    latency, busy_s = [], 0.0
    for start, end, group in groups:
        scaled = speed.scaled(start, end)
        busy_s += scaled
        factor = scaled / (end - start) / 1e6
        latency += [ns * factor for ns in group]
    ops_per_s = len(latency) / busy_s
    correct = sum(d == label for d, label in zip(decisions, labels))
    return {
        "setup_s": setup_s,
        "run_s": size["block_pairs"] / ops_per_s,
        "ops_per_s": ops_per_s,
        "latency_ms_p50": statistics.median(latency),
        "latency_ms_p90": percentile(latency, 90),
        "latency_ms_p99": percentile(latency, 99),
        "accuracy": correct / len(labels),
        "mrr": sum(1.0 / r for r in probe_ranks if r) / len(probe_ranks),
        "observed": {"decisions": bits, "probe_ranks": probe_ranks},
        "inputs": {"train_pairs": 2 * n, "ops": len(latency), "blocks": b,
                   "median_probe_s": speed.median_probe_s(), "decision_digest": digest(bits)},
    }


def rank_probe(ck, scorer, pairs, count):
    """Ranks (0 beyond the top 10) of training cognates' targets in the
    trained model's own index: the CLI `rank --model` path."""
    combined = scorer.with_config(normalization="per_query_minmax")
    indexed = {w for w, _ in scorer.index.docs}
    probe = [(s, t) for s, t, label in pairs if label and t in indexed][:count]
    return [rank_of(ck.rank(source, scorer.index, scorer=combined, k=TOP_K), target)
            for source, target in probe]


def rank_of(result, target):
    """1-based position of ``target`` in a top-k result; 0 when absent."""
    for i, (word, _) in enumerate(result or ()):
        if word == target:
            return i + 1
    return 0


# ---------------------------------------------------------------------------
# traced runs


def traced_unit(tracer, setup, ops):
    """``ops(setup())``, untraced then traced; the overhead ratio compares
    their times scaled to the host's speed."""
    speed = HostSpeed()
    spans = []
    with speed.sampling():
        for traced in (False, True):
            gc.collect()
            if traced:
                tracer.install()
            start = time.perf_counter()
            try:
                with tracer.span("bench.setup") if traced else contextlib.nullcontext():
                    state = setup()
                with tracer.span("bench.ops") if traced else contextlib.nullcontext():
                    ops(state)
            finally:
                spans.append((start, time.perf_counter()))
                if traced:
                    tracer.uninstall()
    return {"overhead_ratio": speed.scaled(*spans[1]) / speed.scaled(*spans[0])}


def layer_metrics(tracer, overhead_ratio):
    totals = tracer.totals()

    def get(name, field):
        return totals.get(name, {}).get(field, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {
        "shingling.shingle.calls": get("shingling.shingle", "calls"),
        "shingling.shingle.self_s": get("shingling.shingle", "self_s"),
        "shingling.shingle.calls_per_distinct_word": ratio(
            get("shingling.shingle", "calls"), len(tracer.distinct["shingling.shingle"])),
        "ranking.build_index.s": get("ranking.build_index", "s"),
        "ranking.load_lexicon.s": get("ranking.load_lexicon", "s"),
        "ranking.rank.calls": get("ranking.rank", "calls"),
        "ranking.sim.calls": get("ranking.sim", "calls"),
        "ranking.sim.self_s": get("ranking.sim", "self_s"),
        "error_model.build_graph.calls": get("error_model.build_graph", "calls"),
        "error_model.build_graph.self_s": get("error_model.build_graph", "self_s"),
        "error_model.build_graph.calls_per_distinct_pair": ratio(
            get("error_model.build_graph", "calls"),
            len(tracer.distinct["error_model.build_graph"])),
        "error_model.transformation_score.calls":
            get("error_model.ErrorModel.transformation_score", "calls"),
        "error_model.transformation_score.self_s":
            get("error_model.ErrorModel.transformation_score", "self_s"),
        "error_model.train_error_model.s": get("error_model.train_error_model", "s"),
        "scorer.score_candidates.self_s": get("scorer.CombinedScorer.score_candidates", "self_s"),
        "scorer.combined_score.calls": get("scorer.CombinedScorer.combined_score", "calls"),
        "scorer.combined_score.self_s": get("scorer.CombinedScorer.combined_score", "self_s"),
        "scorer.learn_threshold.calls": get("scorer.learn_threshold", "calls"),
        "scorer.learn_threshold.self_s": get("scorer.learn_threshold", "self_s"),
        "scorer.train_scorer.s": get("scorer.train_scorer", "s"),
        "evaluation.tune.mrr.s": get("evaluation.tune.mrr", "s"),
        "evaluation.tune.accuracy.s": get("evaluation.tune.accuracy", "s"),
        "evaluation.tune.self_s": get("evaluation.tune", "self_s"),
        "evaluation.eval_mrr.s": get("evaluation.eval_mrr", "s"),
        "evaluation.eval_classification.s": get("evaluation.eval_classification", "s"),
        "evaluation.load_dataset.s": get("evaluation.load_dataset", "s"),
        "persistence.load_model.s": get("persistence.load_model", "s"),
        "persistence.save_model.s": get("persistence.save_model", "s"),
        "trace.overhead_ratio": overhead_ratio,
    }
    by_kind: dict[str, list[float]] = {}
    docs = results = 0
    for span in tracer.spans:
        if span[2] != "ranking.rank":
            continue
        by_kind.setdefault(span[3], []).append((span[5] - span[4]) / 1e6)
        counts = tracer.subtree_calls(
            span[0], ("ranking.sim", "error_model.ErrorModel.transformation_score"))
        docs += max(counts.values())
        results += span[7] or 0
    for kind in ("bm25", "dirichlet", "tfidf", "xdice", "combined"):
        samples = by_kind.get(kind)
        out[f"ranking.rank.{kind}.ms_p50"] = statistics.median(samples) if samples else 0.0
    out["ranking.rank.docs_scored_per_query"] = ratio(docs, out["ranking.rank.calls"])
    out["ranking.rank.results_per_doc_scored"] = ratio(results, docs)
    return out


# ---------------------------------------------------------------------------
# command line


def load_reference(workload):
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload)


def run_workload(workload, seed, seconds, trace, size_name="full", reference="file",
                 oracle_tamper=None):
    """Run one workload in this process; returns (result, stamps, observed).

    ``reference`` is a dict of expected outputs, None to check nothing
    against a reference, or "file" for this workload's entry of
    ``reference.json``.  ``oracle_tamper`` lets the self-test corrupt
    the oracle's expected top 10.
    """
    ck = import_program()
    size = SIZES[size_name]
    if reference == "file":
        reference = load_reference(workload)
    checks = Checks(reference, oracle_tamper)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    tracer = tracing.Tracer() if trace else None
    body = {"experiment": experiment, "retrieval": retrieval, "classify": classify}[workload]
    try:
        out = body(ck, work, seed, seconds, size, checks, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        tracer.write(WORK / f"trace-{workload}-seed{seed}.json")
        metrics = {name: {"value": value, "unit": PER_LAYER[name]}
                   for name, value in layer_metrics(tracer, out["overhead_ratio"]).items()}
        inputs = {}
    else:
        out["peak_rss_mb"] = peak_rss_mb()
        out["success_rate"] = 1.0 - checks.failed / checks.attempted
        metrics = {name: {"value": out[name], "unit": unit} for name, unit in END_TO_END.items()}
        inputs = out["inputs"]
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    stamps = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(bool(trace)),
        "size": size_name,
        "inputs": inputs,
        "error_rate": checks.failed / checks.attempted,
        "problems": checks.problems,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
    }
    return result, stamps, out.get("observed")


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_all(args):
    """Each workload in a fresh process, so peak RSS is that workload's own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"perfbench: {workload} failed with exit code {done.returncode}",
                  file=sys.stderr)
            return 1
        print(lines[-2])  # stamps
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            print(f"{workload:<10} {name:<50} {metric['value']:>14.6g} {metric['unit']}")
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's checked outputs in reference.json")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    reference = None if args.record_reference else "file"
    result, stamps, observed = run_workload(args.workload, args.seed, args.seconds, args.trace,
                                            reference=reference)
    if args.record_reference:
        table = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}
        table[args.workload] = observed
        REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    print(json.dumps(stamps, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
