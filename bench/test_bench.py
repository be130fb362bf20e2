"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import signal
import sys

import pytest

import cases
import reference
import run
import tracing

sys.path.insert(0, str(run.SRC))
import hyperconn  # noqa: E402
import hyperconn.cli  # noqa: E402


def _snapshot() -> dict[tuple[str, str], object]:
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "hyperconn" or name.startswith("hyperconn.")
        for attr, value in vars(module).items()
    }


def _unchanged(before, after) -> bool:
    return before.keys() == after.keys() and all(after[key] is before[key] for key in before)


@pytest.fixture
def tiny(tmp_path):
    """A 6-cycle file and a right and a wrong expectation for it."""
    path = tmp_path / "cycle_6.txt"
    path.write_text(hyperconn.serialize_hypergraph(hyperconn.circulant_graph(6, (1,))))
    argv = ["analyze", str(path), "--connectivity", "--machine"]
    right = cases.Case("right", argv, cases._machine_check(path, kappa=2, transitive=None), 30.0)
    wrong = cases.Case("wrong", argv, cases._machine_check(path, kappa=3, transitive=None), 30.0)
    return right, wrong


def _code_files_run(fn) -> set[str]:
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code.co_filename)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return seen


def test_tracer_wraps_the_attribute_each_caller_looks_up_and_restores_it():
    before = _snapshot()
    tracer = tracing.Tracer()
    tracer.install(hyperconn)
    try:
        original_flow = before[("hyperconn.connectivity", "st_edge_connectivity")]
        assert hyperconn.connectivity.st_edge_connectivity.__wrapped__ is original_flow
        original_kappa = before[("hyperconn.connectivity", "edge_connectivity")]
        assert hyperconn.cli.edge_connectivity.__wrapped__ is original_kappa
        original_boundary = before[("hyperconn.model", "boundary")]
        assert hyperconn.connectivity.boundary.__wrapped__ is original_boundary
        assert hyperconn.cli.main.__wrapped__ is before[("hyperconn.cli", "main")]
    finally:
        tracer.restore()
    assert _unchanged(before, _snapshot())


def test_traced_run_restores_every_patched_attribute(tiny):
    before = _snapshot()
    m = run.measure(hyperconn, list(tiny), passes=2, trace=True)
    assert _unchanged(before, _snapshot())
    assert len(m.traced_pass_s) == 1
    layer = m.tracer.metrics(1)
    assert layer["connectivity.kappa.calls"] == 2
    assert layer["connectivity.flow.calls"] == 2 * 5  # one flow per target
    assert layer["connectivity.flow.ms"] > layer["connectivity.flow.self_ms"] > 0


def test_untraced_run_patches_nothing(tiny):
    before = _snapshot()
    files = _code_files_run(lambda: run.measure(hyperconn, list(tiny), passes=2, trace=False))
    assert tracing.__file__ not in files
    assert _unchanged(before, _snapshot())
    # The probe does see the wrappers when they run.
    files = _code_files_run(lambda: run.measure(hyperconn, list(tiny), passes=2, trace=True))
    assert tracing.__file__ in files


def test_wrong_expected_answer_is_reported_as_failure(tiny):
    m = run.measure(hyperconn, list(tiny), passes=1, trace=False)
    assert [(o.case, o.status) for o in m.outcomes] == [("right", "ok"), ("wrong", "mismatch")]
    assert "kappa=3" in m.outcomes[1].detail
    line = json.loads(run.result_line(m.outcomes, {"pass_s": 1.0}, {"pass_s": "s"}))
    assert line == {
        "correct": False,
        "attempted": 2,
        "failed": 1,
        "metrics": {"pass_s": {"value": 1.0, "unit": "s"}},
    }


def test_budget_hit_is_a_failed_operation(tmp_path):
    path = tmp_path / "affine_7.txt"
    path.write_text(hyperconn.serialize_hypergraph(hyperconn.affine_hypergraph(7)))
    case = cases.Case(
        "slow", ["analyze", str(path), "--transitivity"], cases.exact("never"), 0.2
    )
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        outcome, _, _ = run.run_case(hyperconn, case)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert outcome.status == "timeout"
    assert 0.2 <= outcome.seconds < 2.0


def test_tail_is_the_highest_rank_with_ten_samples_beyond():
    lat = run.latency_summary([i / 1000.0 for i in range(1, 25)])
    assert lat["samples"] == 24
    assert lat["op_tail_ms"] == pytest.approx(14.0)
    assert lat["tail_percentile"] == pytest.approx(100.0 * 14 / 24)
    assert lat["op_p50_ms"] == pytest.approx(12.5)


@pytest.mark.parametrize(
    "H, kappa",
    [
        (hyperconn.circulant_graph(100, (1, 2)), 4),
        (hyperconn.circulant_graph(300, (1,)), 2),
        (hyperconn.Hypergraph(700, tuple((i, i + 1) for i in range(699))), 1),
        (hyperconn.affine_doubled_family(7), 7),
        (hyperconn.cyclic_difference_hypergraph(31, (0, 1, 3, 8, 12, 18)), 6),
        (hyperconn.glued_complete_family(6, 3), 6),
    ],
)
def test_family_theory_matches_the_reference_route(H, kappa):
    assert reference.edge_connectivity(H.n, list(H.edges)) == kappa


def test_gated_theorem_corpus_instances_are_maximal_by_the_reference_route():
    corpus = [
        *hyperconn.linear_uniform_corpus(),
        *hyperconn.transitive_graph_corpus(),
        ("circulant_60_125", hyperconn.circulant_graph(60, (1, 2, 5))),
        ("circulant_100_13", hyperconn.circulant_graph(100, (1, 3))),
    ]
    for name, H in corpus:
        edges = list(H.edges)
        assert reference.edge_connectivity(H.n, edges) == min(reference.degrees(H.n, edges)), name


def test_reference_atom_matches_the_oracle_on_small_instances():
    for seed in range(6):
        H = hyperconn.random_uniform_hypergraph(11, 3, 25, seed)
        edges = list(H.edges)
        kappa = reference.edge_connectivity(H.n, edges)
        assert kappa == hyperconn.edge_connectivity_oracle(H).value
        if kappa:
            assert reference.edge_atom(H.n, edges, kappa) == hyperconn.edge_atom(H).side


def test_random_inputs_follow_the_seed(tmp_path):
    def random_16(seed: int, sub: str) -> str:
        cases.setup("enumerate", hyperconn, seed, tmp_path / sub)
        return (tmp_path / sub / "random_16_3_48.txt").read_text()

    first = random_16(7, "a")
    assert random_16(7, "b") == first
    assert random_16(8, "c") != first
