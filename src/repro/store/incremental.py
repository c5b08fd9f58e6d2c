"""Incremental re-learning against the stored model lineage (``repro ci``).

A spec that has been learned before does not need a cold L*/TTT run to
find out whether its SUL still behaves the same.  :func:`incremental_learn`
seeds from the last :class:`~repro.store.model_store.ModelStore` record,
replays the stored model's own W-method suite (``extra_states=0``) as
membership queries through the store-backed cache -- cheap when nothing
changed, because every answer comes from the :class:`~repro.store
.query_store.QueryStore` -- and only falls back to a full learning run
when an answer diverges.  The result carries a :class:`~repro.analysis
.diff.ModelDiff` whose witnesses are product-BFS shortest diverging
words, i.e. already minimized.

``baseline`` lets a CI pipeline diff one target against another's lineage
(``repro ci http2-buggy --baseline http2``): observations and the new
model stay keyed by the spec's *own* fingerprint, only the reference
model comes from the baseline's.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..analysis.diff import ModelDiff, diff_models
from ..core.mealy import MealyMachine
from ..framework import LearningReport, Prognosis
from ..spec import ExperimentSpec
from .model_store import ModelStore

#: ``mode`` values of an :class:`IncrementalResult`.
MODE_COLD = "cold"            # no stored baseline: a full learning run
MODE_REVALIDATED = "revalidated"  # stored model confirmed query-by-query
MODE_RELEARNED = "relearned"  # divergence found: full re-learn + diff


@dataclass
class IncrementalResult:
    """What one incremental learning run established."""

    spec: ExperimentSpec
    fingerprint: str
    baseline_fingerprint: str
    mode: str
    drifted: bool
    model: MealyMachine
    baseline_version: int | None = None
    saved_version: int | None = None
    diff: ModelDiff | None = None
    report: LearningReport | None = None
    #: Stored-model transitions re-validated as membership queries.
    revalidated_words: int = 0
    #: SUL queries the revalidation itself needed (0 = fully store-served).
    revalidation_sul_queries: int = 0
    store_hits: int = 0
    store_hit_rate: float = 0.0

    def summary(self) -> str:
        name = self.spec.display_name()
        if self.mode == MODE_COLD:
            return (
                f"{name}: cold learn, no stored baseline "
                f"(saved v{self.saved_version})"
            )
        if self.mode == MODE_REVALIDATED:
            return (
                f"{name}: v{self.baseline_version} revalidated "
                f"({self.revalidated_words} words, "
                f"{self.revalidation_sul_queries} SUL queries) -- no drift"
            )
        witnesses = len(self.diff.witnesses) if self.diff is not None else 0
        return (
            f"{name}: DRIFT from v{self.baseline_version} "
            f"({witnesses} witnesses; saved v{self.saved_version})"
        )

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "fingerprint": self.fingerprint,
            "baseline_fingerprint": self.baseline_fingerprint,
            "mode": self.mode,
            "drifted": self.drifted,
            "model": self.model.to_dict(),
            "baseline_version": self.baseline_version,
            "saved_version": self.saved_version,
            "diff": None if self.diff is None else self.diff.to_dict(),
            "report": None if self.report is None else self.report.to_dict(),
            "revalidated_words": self.revalidated_words,
            "revalidation_sul_queries": self.revalidation_sul_queries,
            "store_hits": self.store_hits,
            "store_hit_rate": self.store_hit_rate,
        }


def _revalidate(
    prognosis: Prognosis, baseline: MealyMachine, batch_size: int
) -> tuple[bool, int, int]:
    """Replay the baseline's own W-method suite against the live oracle.

    Returns ``(matches, words_checked, sul_queries_spent)``.  The suite
    with ``extra_states=0`` covers every transition of the stored model,
    so an unchanged SUL answers every word exactly as the model predicts
    -- and a fully-populated store answers all of them without a SUL run.
    """
    suite = baseline.w_method_suite(extra_states=0)
    before = prognosis.sul.stats.queries
    matches = True
    for start in range(0, len(suite), batch_size):
        batch = suite[start : start + batch_size]
        answers = prognosis.oracle.query_batch(batch)
        for word, outputs in zip(batch, answers):
            if tuple(outputs) != tuple(baseline.run(word)):
                matches = False
                break
        if not matches:
            break
    return matches, len(suite), prognosis.sul.stats.queries - before


def incremental_learn(
    spec: ExperimentSpec,
    store_path: str | Path,
    *,
    baseline: str | None = None,
    save: bool = True,
) -> IncrementalResult:
    """Learn ``spec`` incrementally against the store at ``store_path``.

    With no stored baseline model this is a plain (store-backed) learning
    run that seeds the lineage.  Otherwise the stored model is
    re-validated transition-by-transition; on any divergence the spec is
    fully re-learned (through the already-warm store cache) and the two
    models are diffed.  ``baseline`` names another SUL target whose
    lineage serves as the reference (cross-variant drift demos); ``save``
    controls whether a *changed* model is appended to the lineage
    (revalidated runs never append -- the model is byte-identical).
    """
    spec = spec.validate()
    fingerprint = spec.sul_fingerprint()
    baseline_fingerprint = (
        fingerprint
        if baseline is None
        else spec.clone(target=baseline, name=None).sul_fingerprint()
    )
    working = spec if spec.store is not None else spec.clone(store=str(store_path))

    with ModelStore(store_path) as models:
        record = models.latest(baseline_fingerprint)

        with Prognosis.from_spec(working) as prognosis:
            if record is None:
                report = prognosis.learn()
                result = IncrementalResult(
                    spec=working,
                    fingerprint=fingerprint,
                    baseline_fingerprint=baseline_fingerprint,
                    mode=MODE_COLD,
                    drifted=False,
                    model=report.model,
                    report=report,
                )
            else:
                baseline_model = record.machine()
                compatible = tuple(baseline_model.input_alphabet) == tuple(
                    prognosis.oracle.input_alphabet
                )
                matches, words, sul_queries = (
                    _revalidate(prognosis, baseline_model, working.batch_size)
                    if compatible
                    else (False, 0, 0)
                )
                if matches:
                    result = IncrementalResult(
                        spec=working,
                        fingerprint=fingerprint,
                        baseline_fingerprint=baseline_fingerprint,
                        mode=MODE_REVALIDATED,
                        drifted=False,
                        model=baseline_model,
                        baseline_version=record.version,
                        revalidated_words=words,
                        revalidation_sul_queries=sul_queries,
                    )
                else:
                    # The revalidation observations already warmed the
                    # cache, so the full re-learn only pays for what the
                    # baseline could not predict.
                    report = prognosis.learn()
                    diff = (
                        diff_models(baseline_model, report.model)
                        if compatible
                        else None
                    )
                    result = IncrementalResult(
                        spec=working,
                        fingerprint=fingerprint,
                        baseline_fingerprint=baseline_fingerprint,
                        mode=MODE_RELEARNED,
                        drifted=True,
                        model=report.model,
                        baseline_version=record.version,
                        diff=diff,
                        report=report,
                        revalidated_words=words,
                        revalidation_sul_queries=sul_queries,
                    )

            result.store_hits = prognosis.cache_oracle.store_hits
            result.store_hit_rate = prognosis.cache_oracle.store_hit_rate

        if save and result.mode != MODE_REVALIDATED:
            result.saved_version = models.save(
                fingerprint,
                result.model,
                spec=working.to_dict(),
                stats=(
                    {} if result.report is None else result.report.to_dict()
                ),
            )
    return result
