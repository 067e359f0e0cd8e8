"""Spans around the calls into each hyperent module, recorded from outside.

The tracer rebinds module attributes at the places where callers look
them up (``hyperent.ensembles.stream_block`` as well as
``hyperent.rng.stream_block``, and so on), so hyperent itself is not
edited.  Each wrapper records one span: op id, layer, function, start,
end and the parent span.  Spans stay in memory until the run ends.

A layer's self time is the duration of its spans minus the durations of
their direct child spans.  Calls are synchronous, so children nest
inside their parent and the self times of one op sum to its root span.

Work done inside process-pool workers is not traced: the workers are
forked copies whose spans never reach the parent.  The parent records
the pool's lifetime as a ``pool`` span instead, so the wait shows there
and not as self time of the layer that started the pool.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor

def _edge_count_word_ops(counts, args, result):
    h = args[0]
    counts["hypergraph.build_sign_table.edges"] += len(h.edges)
    counts["hypergraph.build_sign_table.word_ops"] += len(h.edges) * max(1, (1 << h.n_qubits) >> 6)


def _numerator_shape(counts, args, result):
    # The numerator runs on the orientation with fewer rows: d_r^2 row
    # pairs of ceil(d_c / 64) words each, over a d_r x d_c packed matrix.
    part = args[1]
    rows = 1 << min(part.n_a, part.n_b)
    words = ((1 << max(part.n_a, part.n_b)) + 63) >> 6
    counts["purity.numerator.word_ops"] += rows * rows * words
    counts["purity.numerator.bytes"] += rows * words * 8


def _rank_pivots(counts, args, result):
    words, cols = args[0], args[1]
    counts["gf2.batch_rank.matrices"] += words.shape[0]
    counts["gf2.batch_rank.pivots"] += int(result.sum())
    counts["gf2.batch_rank.pivot_slots"] += words.shape[0] * cols


def _draws(counts, args, result):
    counts["rng.stream_block.draws"] += args[2]


def _mc_samples(counts, args, result):
    counts["ensembles.samples"] += result.samples


def _subsets(counts, args, result):
    counts["ensembles.subsets"] += result.samples


def _local_edges(counts, args, result):
    h, part = args[0], args[1]
    a, b = part.a_mask, part.b_mask
    counts["state.edges"] += len(h.edges)
    counts["state.local_edges"] += sum(
        1 for m in h.edge_masks if m & a == m or m & b == m
    )


# (layer, defining module, function, modules whose callers look it up, counter)
PATCHES = (
    ("rng", "hyperent.rng", "stream_block", ("hyperent.rng", "hyperent.ensembles"), _draws),
    ("gf2", "hyperent.gf2", "batch_rank", ("hyperent.gf2",), _rank_pivots),
    ("gf2", "hyperent.gf2", "empirical_rank_distribution", ("hyperent.reports",), None),
    ("hypergraph", "hyperent.hypergraph", "build_sign_table", ("hyperent.reports",),
     _edge_count_word_ops),
    ("hypergraph", "hyperent.hypergraph", "parse_graph_file", ("hyperent.cli",), None),
    ("hypergraph", "hyperent.hypergraph", "scatter_table",
     ("hyperent.purity", "hyperent.ensembles"), None),
    ("purity", "hyperent.purity", "reduced_purity", ("hyperent.reports",), _numerator_shape),
    ("purity", "hyperent.purity", "sign_matrix_bits", ("hyperent.purity",), None),
    ("purity", "hyperent.purity", "renyi2", ("hyperent.reports",), None),
    ("ensembles", "hyperent.ensembles", "mc_moments", ("hyperent.reports",), _mc_samples),
    ("ensembles", "hyperent.ensembles", "exact_moments", ("hyperent.reports",), _subsets),
    ("reports", "hyperent.reports", "compute_moments_row", ("hyperent.cli",), None),
    ("reports", "hyperent.reports", "rankdist_rows", ("hyperent.cli",), None),
    ("reports", "hyperent.reports", "state_record", ("hyperent.cli",), _local_edges),
    ("reports", "hyperent.reports", "to_csv", ("hyperent.cli",), None),
    ("reports", "hyperent.reports", "to_json_doc", ("hyperent.cli",), None),
)
POOL_SITES = ("hyperent.ensembles", "hyperent.reports")


class Tracer:
    """In-memory span recorder with counters, installed by ``install()``."""

    def __init__(self):
        self.spans: list = []  # (op, layer, name, start, end, parent)
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._saved: list = []
        self.missing: list[str] = []

    def begin(self, layer: str, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.op, layer, name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][4] = time.perf_counter()
        self._stack.pop()
        self.counts[f"{self.spans[idx][1]}.{self.spans[idx][2]}.calls"] += 1

    def wrap(self, layer: str, fn, counter=None):
        name = fn.__name__

        def traced(*args, **kwargs):
            idx = self.begin(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if counter is not None:
                counter(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def entries(self):
        """(cli.main, reports.state_record) wrapped as root spans; call after install()."""
        cli = importlib.import_module("hyperent.cli")
        return self.wrap("cli", cli.main), cli.state_record

    def install(self) -> None:
        self.missing = []
        for layer, home, name, sites, counter in PATCHES:
            original = getattr(importlib.import_module(home), name, None)
            if original is None:
                self.missing.append(f"{home}.{name}")
                continue
            wrapper = self.wrap(layer, original, counter)
            for site in sites:
                module = importlib.import_module(site)
                if getattr(module, name, None) is original:
                    self._saved.append((module, name, original))
                    setattr(module, name, wrapper)
                else:
                    self.missing.append(f"{site}.{name}")
        pool_class = self._pool_class()
        for site in POOL_SITES:
            module = importlib.import_module(site)
            if getattr(module, "ProcessPoolExecutor", None) is ProcessPoolExecutor:
                self._saved.append((module, "ProcessPoolExecutor", ProcessPoolExecutor))
                module.ProcessPoolExecutor = pool_class

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _pool_class(self):
        tracer = self

        class TracedPool(ProcessPoolExecutor):
            """Records the pool's life, from construction to shutdown, as one span."""

            def __init__(self, *args, **kwargs):
                self._span = tracer.begin("pool", "ProcessPoolExecutor")
                super().__init__(*args, **kwargs)

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.end(self._span)

        return TracedPool

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer and per (layer.function), summed over all spans."""
        child = defaultdict(float)
        for _, _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for idx, (_, layer, name, start, end, _) in enumerate(self.spans):
            own = end - start - child[idx]
            out[layer] += own
            out[f"{layer}.{name}"] += own
            out[f"{layer}.{name}.total"] += end - start
        return out

    def summary(self) -> dict:
        """Counts, span times and the lookup sites not found, as plain JSON data."""
        return {
            "counts": dict(self.counts),
            "times": dict(self.self_times()),
            "root_s": sum(end - start for _, _, _, start, end, parent in self.spans if parent < 0),
            "spans": len(self.spans),
            "missing": self.missing,
        }
