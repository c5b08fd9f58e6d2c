"""Concurrent experiment campaigns over declarative specs.

The paper's results are not one learning run but a *matrix* of them --
four QUIC implementations x learners x testing strategies.  A
:class:`Campaign` executes a list (or :meth:`Campaign.grid`) of
:class:`~repro.spec.ExperimentSpec` concurrently on a thread pool and
packages each run as a structured :class:`RunResult`, optionally writing
artifacts (spec echo, model JSON/DOT, report JSON) to an output
directory.

Runs targeting the *same* SUL (equal :meth:`ExperimentSpec.sul_fingerprint`)
share membership-query observations: after each run its query cache is
merged into a per-fingerprint store, and later runs start with a copy of
that store pre-warming their cache layer.  Sharing never changes learned
models (a deterministic SUL answers identically either way) -- it only
removes repeated SUL executions, which is where campaign wall-clock goes.

::

    campaign = Campaign.grid(
        targets=("tcp", "quic-google"),
        learners=("ttt", "lstar"),
        seeds=(0, 1),
        output_dir="runs/",
    )
    for result in campaign.run():
        print(result.summary())
"""

from __future__ import annotations

import json
import re
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .adapter.executor import ThreadExecutor
from .analysis.diff import ModelDiff, diff_models
from .analysis.difftest import (
    VERDICT_AGREE,
    VERDICT_DIVERGE,
    VERDICT_ERROR,
    VERDICT_INCOMPATIBLE,
    VERDICT_SELF,
    CrossVerdict,
    VerdictMatrix,
    cross_replay,
    minimize_witness,
)
from .analysis.equivalence import find_difference
from .analysis.property_api import (
    PropertyReport,
    check_properties,
    resolve_properties,
)
from .analysis.testgen import SuiteKind, generate_test_suite
from .attack.replay import AttackReport, run_attacks
from .core.mealy import MealyMachine
from .core.trace import Word
from .framework import LearningReport, Prognosis
from .learn.cache import CachedMembershipOracle, CacheInconsistencyError, QueryCache
from .learn.teacher import SULMembershipOracle
from .registry import SUL_REGISTRY, load_builtins, resolve_property_suite
from .spec import ExperimentSpec, PropertiesSpec, SpecError, build_sul


@dataclass
class RunResult:
    """One campaign run: the spec echo plus everything it produced.

    ``error`` is set when the run failed -- e.g. a
    :class:`~repro.learn.nondeterminism.NondeterminismError` for
    mvfst-like targets (``report``/``model`` are then None) or an
    artifact-write failure (learned results are kept).  A failed run
    never aborts the campaign.
    """

    spec: ExperimentSpec
    report: LearningReport | None
    model: MealyMachine | None
    error: str | None = None
    artifact_dir: str | None = None
    #: Property verdicts, when the spec carried a ``properties`` section.
    properties: PropertyReport | None = None
    #: Attack synthesis/replay results, when the spec carried an
    #: ``attack`` section.
    attacks: AttackReport | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def summary(self) -> str:
        name = self.spec.display_name()
        if not self.ok:
            return f"{name}: FAILED ({self.error})"
        report = self.report
        text = (
            f"{name}: {report.num_states} states, "
            f"{report.num_transitions} transitions, "
            f"{report.sul_queries} SUL queries, "
            f"{report.cache_hit_rate:.0%} cache hits"
        )
        if self.spec.corpus is not None:
            text += f", {report.corpus_hit_rate:.0%} corpus hits"
        if self.properties is not None:
            counts = self.properties.counts()
            text += (
                f", properties {counts['holds']}/{len(self.properties)} hold"
            )
        if self.attacks is not None:
            text += (
                f", attacks {len(self.attacks.confirmed)} confirmed"
                f"/{len(self.attacks.unreachable)} unreachable"
            )
        return text


def _safe_name(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", text)


def evaluate_spec_properties(
    spec: ExperimentSpec,
    model: MealyMachine,
    oracle_table=None,
) -> PropertyReport:
    """Run the property checks a spec's ``properties`` section describes.

    A spec without a ``properties`` section gets the defaults (the
    target's registered suite, depth 5, minimized witnesses); individual
    check failures become ERROR verdicts, never exceptions.
    """
    pspec = spec.properties if spec.properties is not None else PropertiesSpec()
    props = resolve_properties(
        spec.target,
        suite=pspec.suite,
        formulas=pspec.formulas,
        include_probes=pspec.include_probes,
    )
    return check_properties(
        model,
        props,
        depth=pspec.depth,
        oracle_table=oracle_table,
        minimize=pspec.minimize,
        target=spec.display_name(),
    )


class Campaign:
    """Run many experiment specs, concurrently, with shared query caches.

    ``workers`` bounds how many *runs* execute at once (each run may
    additionally pool its own SUL instances via ``spec.workers``).
    ``share_cache=False`` isolates every run -- the ablation switch the
    cache-sharing benchmark flips.  ``store`` points every spec that does
    not already carry a ``store`` section at one persistent
    :class:`~repro.store.query_store.QueryStore` file, so runs warm-start
    from (and append to) it per SUL fingerprint.  Specs may be given as
    :class:`~repro.spec.ExperimentSpec` instances or plain dicts.
    """

    def __init__(
        self,
        specs: Iterable[ExperimentSpec | Mapping],
        *,
        workers: int = 1,
        output_dir: str | Path | None = None,
        share_cache: bool = True,
        store: str | Path | None = None,
    ) -> None:
        self.specs = [
            spec if isinstance(spec, ExperimentSpec) else ExperimentSpec.from_dict(spec)
            for spec in specs
        ]
        if store is not None:
            self.specs = [
                spec if spec.store is not None else spec.clone(store=str(store))
                for spec in self.specs
            ]
        if workers < 1:
            raise ValueError(f"need at least one campaign worker, got {workers}")
        self.workers = workers
        self.output_dir = Path(output_dir) if output_dir is not None else None
        self.share_cache = share_cache
        self._caches: dict[str, QueryCache] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @classmethod
    def grid(
        cls,
        targets: Sequence[str],
        learners: Sequence[str] = ("ttt",),
        seeds: Sequence[int] = (0,),
        base: ExperimentSpec | None = None,
        **campaign_kwargs,
    ) -> "Campaign":
        """The cartesian product ``targets x learners x seeds`` as a campaign.

        ``base`` supplies everything the grid axes don't (equivalence
        chain, middleware, target params, per-run workers); each grid cell
        clones it.  Cells are named ``<target>-<learner>-s<seed>``.
        """
        template = base if base is not None else ExperimentSpec(target="toy")
        specs = [
            template.clone(
                target=target,
                learner=learner,
                seed=seed,
                name=f"{target}-{learner}-s{seed}",
            )
            for target in targets
            for learner in learners
            for seed in seeds
        ]
        return cls(specs, **campaign_kwargs)

    # ------------------------------------------------------------------
    def run(self) -> list[RunResult]:
        """Execute every spec; results are in spec order."""
        load_builtins()
        executor = ThreadExecutor(self.workers)
        try:
            return executor.map(self._run_one, list(enumerate(self.specs)))
        finally:
            executor.close()

    # ------------------------------------------------------------------
    def _warm_cache(self, fingerprint: str) -> QueryCache:
        """A fresh cache pre-loaded with the fingerprint's shared store.

        Each run gets its own copy: concurrent same-fingerprint runs never
        mutate a common trie (no locks on the hot query path), they just
        merge what they learned back afterwards.
        """
        warm = QueryCache()
        with self._lock:
            store = self._caches.get(fingerprint)
            if store is not None:
                warm.merge_from(store)
        return warm

    def _absorb_cache(self, fingerprint: str, cache: QueryCache) -> None:
        with self._lock:
            store = self._caches.setdefault(fingerprint, QueryCache())
            try:
                store.merge_from(cache)
            except CacheInconsistencyError:
                # The SUL answered differently across runs (nondeterminism):
                # sharing would poison future runs, so drop the store.
                self._caches.pop(fingerprint, None)

    # ------------------------------------------------------------------
    def _run_one(self, item: tuple[int, ExperimentSpec]) -> RunResult:
        index, spec = item
        try:
            spec.validate()
            shared = None
            if self.share_cache and any(
                m.kind == "cache" for m in spec.middleware
            ):
                shared = self._warm_cache(spec.sul_fingerprint())
            properties_report = None
            attack_report = None
            with Prognosis.from_spec(spec, shared_cache=shared) as prognosis:
                report = prognosis.learn()
                if spec.properties is not None:
                    properties_report = evaluate_spec_properties(
                        spec,
                        report.model,
                        oracle_table=prognosis.sul.oracle_table,
                    )
                if spec.attack is not None:
                    attack_report = run_attacks(
                        spec,
                        report.model,
                        prognosis.oracle,
                        oracle_table=prognosis.sul.oracle_table,
                    )
                if shared is not None and prognosis.cache_oracle is not None:
                    self._absorb_cache(
                        spec.sul_fingerprint(), prognosis.cache_oracle.cache
                    )
            if spec.store is not None:
                # Store-backed runs also record their model lineage, so
                # a later `repro ci` has a baseline to diff against.
                from .store.model_store import ModelStore

                with ModelStore(spec.store.path) as models:
                    models.save(
                        spec.sul_fingerprint(),
                        report.model,
                        spec=spec.to_dict(),
                        stats=report.to_dict(),
                    )
        except Exception as error:  # a failed run must not sink the campaign
            return RunResult(
                spec=spec,
                report=None,
                model=None,
                error=f"{type(error).__name__}: {error}",
            )
        result = RunResult(
            spec=spec,
            report=report,
            model=report.model,
            properties=properties_report,
            attacks=attack_report,
        )
        if self.output_dir is not None:
            try:
                result.artifact_dir = str(self._write_artifacts(index, result))
            except OSError as error:
                # Keep the learned result; only the artifact write failed.
                result.error = f"artifact write failed: {error}"
        return result

    def _write_artifacts(self, index: int, result: RunResult) -> Path:
        spec, report = result.spec, result.report
        directory = self.output_dir / f"{index:03d}-{_safe_name(spec.display_name())}"
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "spec.json").write_text(spec.to_json() + "\n")
        (directory / "model.json").write_text(
            json.dumps(report.model.to_dict(), indent=2) + "\n"
        )
        (directory / "model.dot").write_text(report.model.to_dot() + "\n")
        (directory / "report.json").write_text(
            json.dumps(report.to_dict(), indent=2) + "\n"
        )
        if result.properties is not None:
            (directory / "properties.json").write_text(
                json.dumps(result.properties.to_dict(), indent=2) + "\n"
            )
        if result.attacks is not None:
            (directory / "attacks.json").write_text(
                json.dumps(result.attacks.to_dict(), indent=2) + "\n"
            )
        return directory


def run_spec(
    spec: ExperimentSpec | Mapping,
    output_dir: str | Path | None = None,
    store: str | Path | None = None,
) -> RunResult:
    """Execute a single spec (the ``repro run`` CLI entry point)."""
    return Campaign(
        [spec], output_dir=output_dir, share_cache=False, store=store
    ).run()[0]


# ---------------------------------------------------------------------------
# Differential conformance campaigns
# ---------------------------------------------------------------------------

@dataclass
class DiffTestResult:
    """Everything a differential conformance campaign produced."""

    matrix: VerdictMatrix
    runs: list[RunResult]
    #: Structural model comparison per unordered comparable pair.
    diffs: dict[tuple[str, str], ModelDiff] = field(default_factory=dict)
    artifact_dir: str | None = None
    #: Set when writing artifacts failed; the computed result is kept.
    artifact_error: str | None = None

    def summary(self) -> str:
        learned = sum(1 for run in self.runs if run.model is not None)
        divergent = self.matrix.divergent_pairs()
        text = (
            f"difftest: {learned}/{len(self.runs)} models learned, "
            f"{len(divergent)} divergent pairs"
        )
        violated = sum(
            1
            for run in self.runs
            if run.properties is not None and not run.properties.ok
        )
        if violated:
            text += f", {violated} members violate properties"
        return text

    def render(self) -> str:
        lines = [run.summary() for run in self.runs]
        lines.append("")
        lines.append(self.matrix.render())
        property_lines = [
            run.properties.summary()
            for run in self.runs
            if run.properties is not None
        ]
        if property_lines:
            lines.append("")
            lines.extend(property_lines)
        return "\n".join(lines)


class DiffCampaign:
    """Cross-implementation differential testing at campaign scale.

    Learns a model for every spec concurrently (sharing membership-query
    caches per SUL fingerprint exactly like :class:`Campaign`), derives a
    test suite from each learned model, replays every suite against every
    *other* implementation in batched form through the cached oracle
    stack, and reduces each divergence to a minimized witness.  The
    diagonal replays each suite against its own SUL -- a divergence there
    is a learner bug, not a protocol finding.

    ::

        result = DiffCampaign.family("quic", workers=4).run()
        print(result.matrix.render())
    """

    def __init__(
        self,
        specs: Iterable[ExperimentSpec | Mapping],
        *,
        kinds: Sequence[SuiteKind] = ("wmethod",),
        workers: int = 1,
        output_dir: str | Path | None = None,
        share_cache: bool = True,
        max_divergences: int = 25,
        extra_states: int = 0,
        num_random: int = 100,
        max_length: int = 10,
        store: str | Path | None = None,
    ) -> None:
        self.specs = [
            spec if isinstance(spec, ExperimentSpec) else ExperimentSpec.from_dict(spec)
            for spec in specs
        ]
        if len(self.specs) < 1:
            raise SpecError("a diff campaign needs at least one spec")
        names = [spec.display_name() for spec in self.specs]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise SpecError(
                f"diff campaign specs need unique names, got duplicates: "
                f"{sorted(duplicates)}"
            )
        if workers < 1:
            raise ValueError(f"need at least one campaign worker, got {workers}")
        self.kinds = tuple(kinds) or ("wmethod",)
        self.workers = workers
        self.output_dir = Path(output_dir) if output_dir is not None else None
        self.share_cache = share_cache
        self.max_divergences = max_divergences
        self.extra_states = extra_states
        self.num_random = num_random
        self.max_length = max_length
        self.store = store

    # ------------------------------------------------------------------
    @classmethod
    def family(
        cls,
        targets: str | Sequence[str],
        learner: str = "ttt",
        seed: int = 0,
        base: ExperimentSpec | None = None,
        **campaign_kwargs,
    ) -> "DiffCampaign":
        """A campaign over a registered target family (or explicit list).

        A string names a family from :meth:`repro.registry.Registry
        .families` (``"quic"`` expands to every ``quic-*`` target); a
        sequence names targets directly.  ``base`` supplies everything
        else (equivalence chain, middleware, per-run workers).
        """
        load_builtins()
        if isinstance(targets, str):
            families = SUL_REGISTRY.families()
            try:
                targets = families[targets]
            except KeyError:
                known = ", ".join(sorted(families)) or "<none>"
                raise SpecError(
                    f"unknown SUL family {targets!r}; registered families: {known}"
                ) from None
        template = base if base is not None else ExperimentSpec(target="toy")
        specs = [
            template.clone(target=target, learner=learner, seed=seed, name=target)
            for target in targets
        ]
        return cls(specs, **campaign_kwargs)

    # ------------------------------------------------------------------
    @staticmethod
    def _with_properties(spec: ExperimentSpec) -> ExperimentSpec:
        """A member spec with its registered property suite switched on.

        Differential campaigns run each family member's suite alongside
        cross-replay; a spec that already carries a ``properties``
        section keeps it, and a target with no registered suite runs
        without one.
        """
        if spec.properties is not None:
            return spec
        if resolve_property_suite(spec.target) is None:
            return spec
        return spec.clone(properties=PropertiesSpec())

    def run(self) -> DiffTestResult:
        """Learn every model, run each member's property suite,
        cross-replay every test suite, build the matrix."""
        load_builtins()
        campaign = Campaign(
            [self._with_properties(spec) for spec in self.specs],
            workers=self.workers,
            output_dir=(
                self.output_dir / "runs" if self.output_dir is not None else None
            ),
            share_cache=self.share_cache,
            store=self.store,
        )
        runs = campaign.run()
        names = [spec.display_name() for spec in self.specs]
        suites = {
            name: self._suite(run.model, spec.seed)
            for name, spec, run in zip(names, self.specs, runs)
            if run.model is not None
        }

        pairs = [(i, j) for i in range(len(names)) for j in range(len(names))]
        executor = ThreadExecutor(self.workers)
        try:
            cells = executor.map(
                lambda pair: self._replay_pair(pair, runs, suites, campaign), pairs
            )
        finally:
            executor.close()
        matrix = VerdictMatrix(
            targets=names, cells={(cell.row, cell.col): cell for cell in cells}
        )

        diffs: dict[tuple[str, str], ModelDiff] = {}
        for i, first in enumerate(runs):
            for j in range(i + 1, len(runs)):
                second = runs[j]
                if first.model is None or second.model is None:
                    continue
                if tuple(first.model.input_alphabet) != tuple(
                    second.model.input_alphabet
                ):
                    continue
                diffs[(names[i], names[j])] = diff_models(
                    first.model, second.model
                )

        result = DiffTestResult(matrix=matrix, runs=runs, diffs=diffs)
        if self.output_dir is not None:
            try:
                result.artifact_dir = str(self._write_artifacts(result))
            except OSError as error:
                # Keep the computed matrix; only the artifact write failed.
                result.artifact_error = f"artifact write failed: {error}"
        return result

    # ------------------------------------------------------------------
    def _suite(self, model: MealyMachine, seed: int = 0) -> list[Word]:
        """The merged, deduplicated suite of every configured kind.

        ``seed`` (the owning spec's seed) steers the ``random`` kind so
        ``--seed`` varies random-walk coverage campaign-wide.
        """
        words: dict[Word, None] = {}
        for kind in self.kinds:
            suite = generate_test_suite(
                model,
                kind,
                extra_states=self.extra_states,
                num_random=self.num_random,
                max_length=self.max_length,
                seed=seed,
            )
            words.update(dict.fromkeys(tuple(word) for word in suite))
        return list(words)

    def _replay_oracle(
        self, spec: ExperimentSpec, campaign: Campaign
    ) -> CachedMembershipOracle:
        """A cached oracle over a fresh SUL, pre-warmed with everything the
        learning phase observed for this fingerprint (replays that hit the
        warm trie never touch the SUL)."""
        sul = build_sul(spec)
        return CachedMembershipOracle(
            SULMembershipOracle(sul),
            cache=campaign._warm_cache(spec.sul_fingerprint()),
        )

    @staticmethod
    def _close_oracle(oracle: CachedMembershipOracle | None) -> None:
        if oracle is None:
            return
        close = getattr(oracle.inner.sul, "close", None)
        if callable(close):
            close()

    def _replay_pair(
        self,
        pair: tuple[int, int],
        runs: list[RunResult],
        suites: Mapping[str, list[Word]],
        campaign: Campaign,
    ) -> CrossVerdict:
        """One matrix cell; a crashing replay becomes an ``error`` cell
        (e.g. a nondeterministic subject poisoning its replay cache) so a
        single bad pair never sinks the campaign."""
        i, j = pair
        row_run, col_run = runs[i], runs[j]
        row, col = row_run.spec.display_name(), col_run.spec.display_name()
        try:
            return self._replay_pair_inner(i, j, row, col, row_run, col_run, suites, campaign)
        except Exception as error:
            return CrossVerdict(
                row=row, col=col, verdict=VERDICT_ERROR,
                error=f"replay failed: {type(error).__name__}: {error}",
            )

    def _replay_pair_inner(
        self,
        i: int,
        j: int,
        row: str,
        col: str,
        row_run: RunResult,
        col_run: RunResult,
        suites: Mapping[str, list[Word]],
        campaign: Campaign,
    ) -> CrossVerdict:
        if row_run.model is None:
            return CrossVerdict(
                row=row, col=col, verdict=VERDICT_ERROR,
                error=f"no model for {row}: {row_run.error}",
            )
        if col_run.model is None:
            return CrossVerdict(
                row=row, col=col, verdict=VERDICT_ERROR,
                error=f"no model for {col}: {col_run.error}",
            )
        if tuple(row_run.model.input_alphabet) != tuple(
            col_run.model.input_alphabet
        ):
            return CrossVerdict(
                row=row, col=col, verdict=VERDICT_INCOMPATIBLE,
                error="different input alphabets",
            )

        suite = suites[row]
        col_oracle = self._replay_oracle(col_run.spec, campaign)
        row_oracle: CachedMembershipOracle | None = None
        try:
            divergences = cross_replay(
                row_run.model,
                col_oracle,
                suite,
                batch_size=row_run.spec.batch_size,
                max_divergences=self.max_divergences,
            )
            cell = CrossVerdict(
                row=row,
                col=col,
                verdict=(
                    (VERDICT_DIVERGE if divergences else VERDICT_SELF)
                    if i == j
                    else (VERDICT_DIVERGE if divergences else VERDICT_AGREE)
                ),
                suite_size=len(suite),
                divergence_count=len(divergences),
            )
            if not divergences:
                return cell
            if i != j:
                row_oracle = self._replay_oracle(row_run.spec, campaign)
            else:
                row_oracle = None
            self._attach_witness(
                cell, [d.word for d in divergences], row_run.model,
                col_run.model, row_oracle, col_oracle,
            )
            return cell
        finally:
            self._close_oracle(col_oracle)
            self._close_oracle(row_oracle)

    def _attach_witness(
        self,
        cell: CrossVerdict,
        words: Sequence[Word],
        row_model: MealyMachine,
        col_model: MealyMachine,
        row_oracle: CachedMembershipOracle | None,
        col_oracle: CachedMembershipOracle,
    ) -> None:
        """Minimize a divergence and record the shortest validated witness.

        Ground truth is the *implementations*: the ddmin predicate replays
        candidates against both SULs, so the reduced witness is guaranteed
        to reproduce the differing outputs.  The BFS witness over the two
        learned models (the exhaustive-search shortest difference) is also
        tried, so whenever it reproduces on the SULs -- always, for
        exactly-learned models -- the final witness is never longer than
        what exhaustive product-machine search finds.  If *no* divergence
        word survives SUL replay -- the implementations agree and the learned model was
        wrong about its own SUL -- the cell is downgraded to ``error``: a
        learner/cache artifact must not read as a protocol finding.
        """
        if row_oracle is None:
            # Diagonal cell: the model itself is the reference side, so
            # every divergence word disagrees by construction.
            def disagrees(candidate: Word) -> bool:
                return tuple(row_model.run(candidate)) != tuple(
                    col_oracle.query(candidate)
                )
        else:
            def disagrees(candidate: Word) -> bool:
                return tuple(row_oracle.query(candidate)) != tuple(
                    col_oracle.query(candidate)
                )

        word = next((w for w in words if disagrees(w)), None)
        if word is None:
            cell.verdict = VERDICT_ERROR
            cell.error = (
                f"model of {cell.row} disagrees with the {cell.col} "
                f"implementation on {len(words)} words, but the two "
                "implementations agree there: the learned model is wrong "
                "about its own SUL (learner/cache artifact)"
            )
            return
        candidates = [minimize_witness(word, disagrees)]
        shortest_model_diff = find_difference(row_model, col_model)
        if shortest_model_diff is not None and disagrees(shortest_model_diff):
            candidates.append(shortest_model_diff)
        witness = min(candidates, key=len)
        cell.witness = witness
        cell.witness_row_outputs = (
            tuple(row_model.run(witness))
            if row_oracle is None
            else tuple(row_oracle.query(witness))
        )
        cell.witness_col_outputs = tuple(col_oracle.query(witness))
        cell.witness_validated = True

    # ------------------------------------------------------------------
    def _write_artifacts(self, result: DiffTestResult) -> Path:
        directory = self.output_dir
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "matrix.txt").write_text(result.render() + "\n")
        (directory / "matrix.json").write_text(
            json.dumps(
                {
                    "matrix": result.matrix.to_dict(),
                    "runs": [run.summary() for run in result.runs],
                },
                indent=2,
            )
            + "\n"
        )
        for (first, second), diff in result.diffs.items():
            stem = f"diff-{_safe_name(first)}-vs-{_safe_name(second)}"
            (directory / f"{stem}.txt").write_text(diff.render() + "\n")
            (directory / f"{stem}.json").write_text(
                json.dumps(diff.to_dict(), indent=2) + "\n"
            )
        return directory


def run_difftest(
    targets: str | Sequence[str | ExperimentSpec | Mapping],
    **campaign_kwargs,
) -> DiffTestResult:
    """One-call differential campaign (the ``repro difftest`` entry point).

    ``targets`` is a family name, or a mixed list of target keys and
    ready :class:`~repro.spec.ExperimentSpec` objects / dicts.
    """
    if isinstance(targets, str):
        return DiffCampaign.family(targets, **campaign_kwargs).run()
    specs: list[ExperimentSpec | Mapping] = []
    family_kwargs = {
        key: campaign_kwargs.pop(key, default)
        for key, default in (("learner", "ttt"), ("seed", 0), ("base", None))
    }
    template = family_kwargs["base"] or ExperimentSpec(target="toy")
    for target in targets:
        if isinstance(target, str):
            specs.append(
                template.clone(
                    target=target,
                    learner=family_kwargs["learner"],
                    seed=family_kwargs["seed"],
                    name=target,
                )
            )
        else:
            specs.append(target)
    return DiffCampaign(specs, **campaign_kwargs).run()
