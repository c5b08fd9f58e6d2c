"""Live-SUL replay: verdict classification, orchestration, corpus emission."""

import json
import logging

from repro.adapter.mealy_sul import MealySUL
from repro.analysis.property_api import Property
from repro.attack.automata import AttackerAutomaton, Move
from repro.attack.replay import (
    VERDICT_CONFIRMED,
    VERDICT_DIVERGED,
    VERDICT_REFUTED,
    replay_strategies,
    run_attacks,
)
from repro.attack.search import synthesize_attack
from repro.core.alphabet import Alphabet, TCPSymbol, parse_tcp_symbol
from repro.core.mealy import mealy_from_table
from repro.framework import Prognosis
from repro.learn.bulk import record_full_corpus, stream_corpus
from repro.learn.cache import CachedMembershipOracle
from repro.learn.teacher import SULMembershipOracle
from repro.spec import AttackSpec, ExperimentSpec

SYN = TCPSymbol.make(["SYN"])
ACK = TCPSymbol.make(["ACK"])
SYNACK = TCPSymbol.make(["ACK", "SYN"])
NIL = parse_tcp_symbol("NIL")
RST = parse_tcp_symbol("RST(?,?,0)")

ALPHABET = Alphabet.of([SYN, ACK])


def toy_attacker() -> AttackerAutomaton:
    return AttackerAutomaton(
        name="toy",
        description="reach the RST answer",
        initial="start",
        moves=(
            Move("start", "SYN(?,?,0)", outcomes=(("~SYN", "in"), ("*", "start"))),
            Move("in", "SYN(?,?,0)", outcomes=(("~RST", "goal"), ("*", None))),
        ),
        goals=frozenset({"goal"}),
        capabilities=frozenset({"client"}),
        targets=("tcp",),
    )


def rst_machine(name="toy-tcp"):
    return mealy_from_table(
        "s0",
        ALPHABET,
        [
            ("s0", SYN, SYNACK, "s1"),
            ("s0", ACK, NIL, "s0"),
            ("s1", SYN, RST, "s1"),
            ("s1", ACK, NIL, "s1"),
        ],
        name=name,
    )


def quiet_machine(name="quiet-tcp"):
    """Same shape, but established SYNs draw NIL -- no RST, ever."""
    return mealy_from_table(
        "s0",
        ALPHABET,
        [
            ("s0", SYN, SYNACK, "s1"),
            ("s0", ACK, NIL, "s0"),
            ("s1", SYN, NIL, "s1"),
            ("s1", ACK, NIL, "s1"),
        ],
        name=name,
    )


def oracle_over(machine) -> CachedMembershipOracle:
    return CachedMembershipOracle(SULMembershipOracle(MealySUL(machine)))


class TestVerdicts:
    def test_confirmed_when_live_matches(self):
        model = rst_machine()
        strategy = synthesize_attack(model, toy_attacker())
        results = replay_strategies(
            [(toy_attacker(), strategy)], oracle_over(model)
        )
        (result,) = results
        assert result.verdict == VERDICT_CONFIRMED
        assert result.goal_reached and result.output_match
        assert result.minimized_confirmed

    def test_diverged_when_live_contradicts_the_model(self):
        # Strategy synthesized from the RST model, replayed against the
        # quiet live system: outputs differ, goal missed -> model drift.
        strategy = synthesize_attack(rst_machine(), toy_attacker())
        (result,) = replay_strategies(
            [(toy_attacker(), strategy)], oracle_over(quiet_machine())
        )
        assert result.verdict == VERDICT_DIVERGED
        assert not result.goal_reached and not result.output_match

    def test_refuted_by_replay_time_oracle_objective(self):
        # The live system answers exactly as predicted, but the
        # oracle-kind objective (checkable only at replay time) finds no
        # violating entries: attack refuted, not confirmed.
        model = rst_machine()
        strategy = synthesize_attack(model, toy_attacker())
        never = Property.oracle("never", check=lambda table: [])
        (result,) = replay_strategies(
            [(toy_attacker(), strategy)],
            oracle_over(model),
            objective=never,
            oracle_table={},  # empty table: nothing to violate
        )
        assert result.verdict == VERDICT_REFUTED
        assert result.output_match and not result.goal_reached

    def test_empty_strategy_list(self):
        assert replay_strategies([], oracle_over(rst_machine())) == []


class TestRunAttacks:
    def test_confirmed_end_to_end_with_corpus(self, tmp_path):
        corpus = tmp_path / "attacks.jsonl"
        spec = ExperimentSpec(
            target="tcp",
            seed=7,
            name="tcp",
            attack=AttackSpec(
                attacker="challenge-ack-exhaust", corpus_out=str(corpus)
            ),
        )
        with Prognosis.from_spec(spec) as prognosis:
            model = prognosis.learn().model
            report = run_attacks(spec, model, prognosis.oracle)
        assert report.ok
        assert [r.verdict for r in report.results] == [VERDICT_CONFIRMED]
        (result,) = report.results
        # Acceptance bar: the ddmin witness is no longer than the
        # product-BFS shortest path, and itself confirms live.
        assert len(result.strategy.minimized) <= len(result.strategy.word)
        assert result.minimized_confirmed
        assert report.corpus_path == str(corpus)
        traces = list(stream_corpus(corpus))
        assert traces == [result.live_trace]

    def test_conformant_variant_reports_unreachable(self):
        spec = ExperimentSpec(
            target="tcp-no-challenge-ack",
            seed=7,
            name="tcp-no-challenge-ack",
            attack=AttackSpec(attacker="challenge-ack-exhaust"),
        )
        with Prognosis.from_spec(spec) as prognosis:
            model = prognosis.learn().model
            report = run_attacks(spec, model, prognosis.oracle)
        assert report.results == []
        assert report.unreachable == ["challenge-ack-exhaust"]
        assert report.ok  # no false attack, and unreachable is not failure
        assert "unreachable" in report.render()

    def test_inapplicable_attacker_skipped(self):
        spec = ExperimentSpec(
            target="tcp",
            seed=7,
            name="tcp",
            attack=AttackSpec(attacker="rapid-reset"),
        )
        with Prognosis.from_spec(spec) as prognosis:
            model = prognosis.learn().model
            report = run_attacks(spec, model, prognosis.oracle)
        assert report.skipped == ["rapid-reset"]
        assert report.results == [] and report.unreachable == []

    def test_default_attacker_set_comes_from_registry(self):
        spec = ExperimentSpec(
            target="tcp", seed=7, name="tcp", attack=AttackSpec()
        )
        with Prognosis.from_spec(spec) as prognosis:
            model = prognosis.learn().model
            report = run_attacks(spec, model, prognosis.oracle)
        ran = {r.strategy.attacker for r in report.results}
        assert ran == {"off-path-rst", "challenge-ack-exhaust"}
        assert report.ok

    def test_divergence_surfaces_a_model_diff(self):
        # A stale model (the rate-limited tcp) driving attacks against
        # the conformant live variant: the replay diverges and the drift
        # is explained by a fresh-model diff.
        stale_spec = ExperimentSpec(target="tcp", seed=7, name="tcp")
        with Prognosis.from_spec(stale_spec) as prognosis:
            stale_model = prognosis.learn().model
        live_spec = ExperimentSpec(
            target="tcp-no-challenge-ack",
            seed=7,
            name="tcp",  # pinned: keep model bytes comparable
            attack=AttackSpec(attacker="challenge-ack-exhaust"),
        )
        with Prognosis.from_spec(live_spec) as prognosis:
            prognosis.learn()
            report = run_attacks(live_spec, stale_model, prognosis.oracle)
        (result,) = report.results
        assert result.verdict == VERDICT_DIVERGED
        assert not report.ok
        assert result.model_diff is not None
        assert not result.model_diff.equivalent
        assert "diverged" in report.summary()

    def test_divergence_relearn_ignores_a_stale_corpus(self, tmp_path):
        # The live spec carries a corpus recorded from the stale target:
        # the explaining relearn must ask the live SUL, not that corpus.
        stale_spec = ExperimentSpec(target="tcp", seed=7, name="tcp")
        corpus = tmp_path / "stale.jsonl"
        record_full_corpus(stale_spec, corpus)
        with Prognosis.from_spec(stale_spec) as prognosis:
            stale_model = prognosis.learn().model
        live_spec = ExperimentSpec(
            target="tcp-no-challenge-ack",
            seed=7,
            name="tcp",
            corpus=str(corpus),
            attack=AttackSpec(attacker="challenge-ack-exhaust"),
        )
        with Prognosis.from_spec(live_spec.clone(corpus=None)) as prognosis:
            prognosis.learn()
            report = run_attacks(live_spec, stale_model, prognosis.oracle)
        (result,) = report.results
        assert result.verdict == VERDICT_DIVERGED
        assert not result.model_diff.equivalent

    def test_failed_relearn_is_logged_not_swallowed(self, monkeypatch, caplog):
        stale_spec = ExperimentSpec(target="tcp", seed=7, name="tcp")
        with Prognosis.from_spec(stale_spec) as prognosis:
            stale_model = prognosis.learn().model
        live_spec = ExperimentSpec(
            target="tcp-no-challenge-ack",
            seed=7,
            name="tcp",
            attack=AttackSpec(attacker="challenge-ack-exhaust"),
        )
        with Prognosis.from_spec(live_spec) as prognosis:
            prognosis.learn()

            def broken_learn(self):
                raise RuntimeError("relearn exploded")

            monkeypatch.setattr(Prognosis, "learn", broken_learn)
            with caplog.at_level(logging.WARNING, logger="repro.attack"):
                report = run_attacks(live_spec, stale_model, prognosis.oracle)
        (result,) = report.results
        assert result.verdict == VERDICT_DIVERGED
        assert result.model_diff is None
        (record,) = [r for r in caplog.records if r.name.startswith("repro.attack")]
        assert record.levelno == logging.WARNING
        assert "tcp" in record.getMessage()
        assert "relearn exploded" in str(record.exc_info[1])

    def test_report_to_dict_is_json_able(self, tmp_path):
        spec = ExperimentSpec(
            target="tcp",
            seed=7,
            name="tcp",
            attack=AttackSpec(attacker="off-path-rst"),
        )
        with Prognosis.from_spec(spec) as prognosis:
            model = prognosis.learn().model
            report = run_attacks(spec, model, prognosis.oracle)
        data = json.loads(json.dumps(report.to_dict()))
        assert data["ok"] is True
        assert data["target"] == "tcp"
        assert data["results"][0]["verdict"] == VERDICT_CONFIRMED
