"""Declarative experiment specifications (the serializable API surface).

An :class:`ExperimentSpec` is a complete, JSON-round-trippable description
of one learning experiment: the SUL target, the learner, the equivalence
-oracle chain, the membership-oracle middleware stack, and the execution
knobs (workers, seed, batch size).  Components are named by their
:mod:`repro.registry` keys, so a spec contains *no* code -- it can be
stored next to its artifacts, diffed, and replayed byte-identically::

    spec = ExperimentSpec(target="tcp", learner="lstar", seed=7)
    spec == ExperimentSpec.from_json(spec.to_json())   # lossless

:func:`assemble` turns a spec into the live oracle/learner pipeline; the
:class:`repro.framework.Prognosis` facade and the
:class:`repro.campaign.Campaign` runner are both built on it.
"""

from __future__ import annotations

import copy
import functools
import json
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from types import UnionType
from typing import ClassVar, Mapping, Union, get_args, get_origin, get_type_hints

from .adapter.executor import EXECUTOR_KINDS
from .adapter.pool import SULPool
from .adapter.sul import SUL
from .learn.equivalence import ChainedEquivalenceOracle
from .learn.teacher import EquivalenceOracle, MembershipOracle, SULMembershipOracle
from .registry import (
    EQ_ORACLE_REGISTRY,
    LEARNER_REGISTRY,
    MIDDLEWARE_REGISTRY,
    SUL_REGISTRY,
    RegistryFactory,
    load_builtins,
    supported_kwargs,
)


class SpecError(ValueError):
    """A malformed or unsatisfiable experiment specification."""


class _Section:
    """The dict/JSON codec every spec class shares.

    Subclasses are dataclasses that declare their fields, a ``_label``
    naming the section in error messages, optionally a ``_shorthand``
    field a bare string stands for (``"process"`` == ``{"kind":
    "process"}``), and a :meth:`validate` for range and registry checks.
    Serialization (in declaration order), parsing, cloning and the type
    check every construction runs all derive from the declared fields.
    """

    _label: ClassVar[str]
    _shorthand: ClassVar[str | None] = None

    def __post_init__(self) -> None:
        hints = _field_hints(type(self))
        for spec_field in fields(self):
            name = spec_field.name
            where = f"{self._label} spec {name!r}"
            setattr(self, name, _coerce(hints[name], getattr(self, name), where))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        """Parse an instance, ``None``, a mapping or a shorthand string."""
        if data is None or isinstance(data, cls):
            return data
        if isinstance(data, str) and cls._shorthand is not None:
            return cls(**{cls._shorthand: data})
        if not isinstance(data, Mapping):
            raise SpecError(f"{cls._label} spec must be a mapping, got {data!r}")
        cls._check_keys(data)
        for spec_field in fields(cls):
            required = spec_field.default is spec_field.default_factory is MISSING
            if required and spec_field.name not in data:
                raise SpecError(f"{cls._label} spec needs a {spec_field.name!r}")
        return cls(**data)

    @classmethod
    def _check_keys(cls, keys) -> None:
        unknown = set(keys) - {spec_field.name for spec_field in fields(cls)}
        if unknown:
            raise SpecError(f"unknown {cls._label} spec keys: {sorted(unknown)}")

    def clone(self):
        return copy.deepcopy(self)

    def validate(self):
        return self


_field_hints = functools.cache(get_type_hints)


def _coerce(hint, value, where: str):
    """``value`` checked against the resolved annotation ``hint``.

    Section-typed values are parsed by that section's ``from_dict`` (so
    shorthands and nested mappings work), list items are checked one by
    one, an ``int`` is accepted where a ``float`` is declared, and a
    ``bool`` never passes for a number.
    """
    if get_origin(hint) in (Union, UnionType):
        if value is None:
            return None
        (hint,) = [arg for arg in get_args(hint) if arg is not type(None)]
    kind = get_origin(hint) or hint
    if value is not None and issubclass(kind, _Section):
        return kind.from_dict(value)
    if kind is list and isinstance(value, (list, tuple)):
        (item,) = get_args(hint)
        return [_coerce(item, each, f"{where}[{i}]") for i, each in enumerate(value)]
    expected = (int, float) if kind is float else kind
    if isinstance(value, expected) and (kind is bool or not isinstance(value, bool)):
        return value
    raise SpecError(f"{where} must be {kind.__name__}, got {value!r}")


def _check_formula(text: str, what: str) -> None:
    from .analysis.ltl import LTLError, parse_ltl

    try:
        parse_ltl(text)
    except LTLError as error:
        raise SpecError(f"bad {what} {text!r}: {error}") from error


@dataclass
class ComponentSpec(_Section):
    """One registry-keyed component plus its constructor params.

    Used for equivalence-oracle chain entries and middleware layers.  In
    dict/JSON form a bare string is accepted as shorthand for a component
    with default params (``"cache"`` == ``{"kind": "cache", "params": {}}``).
    """

    _label = "component"
    _shorthand = "kind"

    kind: str
    params: dict = field(default_factory=dict)


@dataclass
class PropertiesSpec(_Section):
    """The declarative ``properties`` section of an experiment spec.

    Describes which property checks run against the learned model:
    ``suite`` names a :data:`repro.registry.PROPERTY_REGISTRY` key
    explicitly (``None`` auto-resolves the target's own suite by
    name/family stem), ``formulas`` adds ad-hoc LTLf formula strings,
    ``depth`` bounds the exhaustive model exploration,
    ``include_probes`` keeps design-decision probes in the run, and
    ``minimize`` controls ddmin witness reduction.  Like every spec
    layer it is JSON-round-trippable and contains no code.
    """

    _label = "properties"

    suite: str | None = None
    depth: int = 5
    formulas: list[str] = field(default_factory=list)
    include_probes: bool = False
    minimize: bool = True

    def validate(self) -> "PropertiesSpec":
        from .registry import PROPERTY_REGISTRY

        if self.depth < 1:
            raise SpecError(f"need a positive property depth, got {self.depth}")
        if self.suite is not None:
            PROPERTY_REGISTRY.get(self.suite)  # raises RegistryError
        for formula in self.formulas:
            _check_formula(formula, "property formula")
        return self


@dataclass
class ExecutorSpec(_Section):
    """The declarative ``executor`` section of an experiment spec.

    ``kind`` picks the :mod:`repro.adapter.executor` backend (``serial``,
    ``thread`` or ``process``), ``workers`` overrides the spec-level
    worker count (``None`` inherits it), and ``timeout_s`` bounds one
    shard's execution on backends that supervise their workers (the
    ``process`` pool and the remote-SUL boundary).  In dict/JSON form a
    bare string is shorthand for a kind with inherited knobs
    (``"process"`` == ``{"kind": "process"}``).

    The executor deliberately does not contribute to
    :meth:`ExperimentSpec.sul_fingerprint`: it changes how fast answers
    arrive, never what they are.
    """

    _label = "executor"
    _shorthand = "kind"

    kind: str = "thread"
    workers: int | None = None
    timeout_s: float | None = None


@dataclass
class StoreSpec(_Section):
    """The declarative ``store`` section of an experiment spec.

    ``path`` locates the sqlite :class:`~repro.store.query_store
    .QueryStore` file; when set, :func:`assemble` swaps the spec's
    ``cache`` middleware layer for a :class:`~repro.store.middleware
    .StoreBackedCache` keyed by the spec's
    :meth:`~ExperimentSpec.sul_fingerprint`, so observations warm-start
    across processes and days.  ``flush_every`` batches appended rows
    per transaction.  In dict/JSON form a bare string is shorthand for
    a path with default knobs.

    Like the executor, the store deliberately does not contribute to
    the SUL fingerprint: it changes where answers come *from*, never
    what they are.
    """

    _label = "store"
    _shorthand = "path"

    path: str
    flush_every: int = 256

    def validate(self) -> "StoreSpec":
        if not self.path:
            raise SpecError("store spec needs a non-empty path")
        if self.flush_every < 1:
            raise SpecError(
                f"need a positive store flush_every, got {self.flush_every}"
            )
        return self


@dataclass
class CorpusSpec(_Section):
    """The declarative ``corpus`` section of an experiment spec.

    ``path`` locates a JSONL trace corpus (see
    :mod:`repro.learn.bulk`); when set, :func:`assemble` upgrades the
    spec's plain ``cache`` middleware layer to the corpus-seeded
    ``passive`` layer, so membership queries the corpus already answers
    never reach the live SUL -- and when the spec *also* carries a
    ``store`` section, the corpus is streamed through the store-backed
    cache instead, persisting its observations.  ``skip_conflicts``
    makes nondeterministic traces a counted finding rather than an
    error; ``max_traces`` bounds the streaming read.  In dict/JSON form
    a bare string is shorthand for a path with default knobs.

    Like the executor and the store, the corpus deliberately does not
    contribute to the SUL fingerprint: it changes where answers come
    *from*, never what they are.
    """

    _label = "corpus"
    _shorthand = "path"

    path: str
    skip_conflicts: bool = True
    max_traces: int | None = None

    def validate(self) -> "CorpusSpec":
        if not self.path:
            raise SpecError("corpus spec needs a non-empty path")
        if self.max_traces is not None and self.max_traces < 1:
            raise SpecError(
                f"need a positive corpus max_traces, got {self.max_traces}"
            )
        return self


@dataclass
class AttackSpec(_Section):
    """The declarative ``attack`` section of an experiment spec.

    Opting in makes a campaign run :func:`repro.attack.replay.run_attacks`
    after learning: synthesize attacker strategies offline from the
    learned model, replay them against the live SUL, and (with ``fuzz``)
    barrage the model's frontier states.  ``attacker`` pins one
    :data:`~repro.attack.automata.ATTACK_REGISTRY` key (default: every
    automaton applicable to the target); ``objective`` is an optional
    LTLf formula the attack trace must *violate*; ``budget`` and
    ``max_suffix`` bound the fuzzer; ``corpus_out`` writes confirmed
    attacks (and fuzz divergences) as a JSONL corpus.  In dict/JSON form
    a bare string is shorthand for an attacker key with default knobs.

    Like the executor, the section never contributes to the SUL
    fingerprint: attacks change what is *asked* after learning, not what
    the system answers.
    """

    _label = "attack"
    _shorthand = "attacker"

    attacker: str | None = None
    objective: str | None = None
    budget: int = 200
    fuzz: bool = False
    max_suffix: int = 4
    corpus_out: str | None = None

    def validate(self) -> "AttackSpec":
        if self.budget < 1:
            raise SpecError(f"need a positive attack budget, got {self.budget}")
        if self.max_suffix < 1:
            raise SpecError(
                f"need a positive attack max_suffix, got {self.max_suffix}"
            )
        if self.attacker is not None:
            from .attack.automata import ATTACK_REGISTRY

            ATTACK_REGISTRY.get(self.attacker)  # raises RegistryError
        if self.objective is not None:
            _check_formula(self.objective, "attack objective")
        return self


def default_equivalence() -> list[ComponentSpec]:
    """The default EQ chain: W-method with one extra state (paper setup)."""
    return [ComponentSpec("wmethod", {"extra_states": 1})]


def default_middleware() -> list[ComponentSpec]:
    """The default oracle stack: just the prefix-tree query cache."""
    return [ComponentSpec("cache")]


@dataclass
class ExperimentSpec(_Section):
    """A complete, serializable description of one learning experiment.

    ``target`` / ``learner`` name :data:`repro.registry.SUL_REGISTRY` /
    :data:`~repro.registry.LEARNER_REGISTRY` entries; ``equivalence`` is an
    ordered oracle chain (one entry runs alone, several are chained
    cheap-first); ``middleware`` is the membership-oracle stack applied
    innermost-first on top of the raw SUL oracle.  ``seed`` seeds
    randomized equivalence oracles, ``batch_size`` bounds query batches,
    and ``workers > 1`` fans batches over a pool of identically-built SUL
    instances.
    """

    _label = "experiment"

    target: str
    target_params: dict = field(default_factory=dict)
    learner: str = "ttt"
    learner_params: dict = field(default_factory=dict)
    equivalence: list[ComponentSpec] = field(default_factory=default_equivalence)
    middleware: list[ComponentSpec] = field(default_factory=default_middleware)
    workers: int = 1
    seed: int = 0
    batch_size: int = 64
    name: str | None = None
    properties: PropertiesSpec | None = None
    executor: ExecutorSpec | None = None
    store: StoreSpec | None = None
    corpus: CorpusSpec | None = None
    attack: AttackSpec | None = None

    # -- identity ----------------------------------------------------------
    def display_name(self) -> str:
        """The run name: explicit ``name`` or ``target-learner-s<seed>``."""
        return self.name or f"{self.target}-{self.learner}-s{self.seed}"

    def sul_fingerprint(self) -> str:
        """Behavioural identity of the SUL this spec targets.

        Two specs with equal fingerprints query *the same* system (same
        target key, same construction params), so their membership-query
        caches are interchangeable -- the sharing key campaigns use.
        Learner, equivalence chain, seed and executor deliberately do
        not contribute: they change which queries are asked or how they
        are scheduled, not the answers.
        """
        return json.dumps(
            {"target": self.target, "params": self.target_params},
            sort_keys=True,
            default=str,
        )

    def effective_executor(self) -> ExecutorSpec:
        """The fully-resolved executor this spec runs on.

        With no ``executor`` section the historical behaviour is kept:
        ``workers > 1`` means the thread pool, ``workers == 1`` a plain
        serial SUL.  An explicit section picks the backend ``kind`` and
        may override the worker count.
        """
        if self.executor is None:
            kind = "thread" if self.workers > 1 else "serial"
            return ExecutorSpec(kind=kind, workers=self.workers)
        if self.executor.workers is None:
            return replace(self.executor, workers=self.workers)
        return self.executor.clone()

    # -- serialization -----------------------------------------------------
    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return _coerce(cls, json.loads(text), "experiment spec")

    @classmethod
    def from_file(cls, path) -> "ExperimentSpec":
        """Load a spec from a JSON file (the CLI ``run``/``difftest`` path)."""
        with open(path) as handle:
            return cls.from_json(handle.read())

    def clone(self, **overrides) -> "ExperimentSpec":
        """An independent copy with ``overrides`` applied (grid expansion)."""
        self._check_keys(overrides)
        return replace(copy.deepcopy(self), **overrides)

    # -- validation --------------------------------------------------------
    def validate(self) -> "ExperimentSpec":
        """Check registry membership and knob ranges; returns ``self``."""
        load_builtins()
        if self.workers < 1:
            raise SpecError(f"need at least one worker, got {self.workers}")
        if self.batch_size < 1:
            raise SpecError(f"need a positive batch_size, got {self.batch_size}")
        if not self.equivalence:
            raise SpecError("spec needs at least one equivalence oracle")
        executor = self.effective_executor()
        if executor.kind not in EXECUTOR_KINDS:
            raise SpecError(
                f"unknown executor kind {executor.kind!r}; "
                f"known: {', '.join(EXECUTOR_KINDS)}"
            )
        if executor.workers < 1:
            raise SpecError(
                f"need at least one executor worker, got {executor.workers}"
            )
        if executor.kind == "serial" and executor.workers > 1:
            raise SpecError(
                "the serial executor runs one worker; "
                f"got workers={executor.workers} (use thread or process)"
            )
        if executor.timeout_s is not None and executor.timeout_s <= 0:
            raise SpecError(
                f"need a positive executor timeout_s, got {executor.timeout_s}"
            )
        for spec_field in fields(self):
            section = getattr(self, spec_field.name)
            if isinstance(section, _Section):
                section.validate()
        if self.store is not None and not any(
            m.kind in ("cache", "store") for m in self.middleware
        ):
            raise SpecError(
                "a store section needs a 'cache' (or 'store') "
                "middleware layer to back"
            )
        if self.corpus is not None and not any(
            m.kind in ("cache", "store", "passive") for m in self.middleware
        ):
            raise SpecError(
                "a corpus section needs a 'cache' (or 'store'/'passive') "
                "middleware layer to seed"
            )
        for registry, keys in (
            (SUL_REGISTRY, [self.target]),
            (LEARNER_REGISTRY, [self.learner]),
            (EQ_ORACLE_REGISTRY, [e.kind for e in self.equivalence]),
            (MIDDLEWARE_REGISTRY, [m.kind for m in self.middleware]),
        ):
            for key in keys:
                registry.get(key)  # raises RegistryError with known names
        return self


# ---------------------------------------------------------------------------
# Spec -> live pipeline
# ---------------------------------------------------------------------------

@dataclass
class AssembledPipeline:
    """The live objects a spec describes, one per stack position."""

    sul: SUL
    base_oracle: SULMembershipOracle
    middleware: list  # instances, innermost first
    oracle: MembershipOracle  # top of the middleware stack
    equivalence_oracle: EquivalenceOracle
    learner: object


def build_sul(spec: ExperimentSpec) -> SUL:
    """Instantiate the spec's SUL target on its effective executor.

    ``process`` always builds a pool (the workers live in child
    processes, even for ``workers == 1``) and uses a picklable
    :class:`~repro.registry.RegistryFactory` so closure-registered
    targets work too; ``thread`` pools when ``workers > 1``; anything
    else is a plain in-process SUL.
    """
    load_builtins()
    factory = SUL_REGISTRY.get(spec.target)
    executor = spec.effective_executor()
    if executor.kind == "process":
        return SULPool(
            RegistryFactory(spec.target, spec.target_params),
            workers=executor.workers,
            name=spec.name,
            backend="process",
            timeout_s=executor.timeout_s,
        )
    if executor.workers > 1:
        return SULPool(
            lambda: factory(**spec.target_params),
            workers=executor.workers,
            name=spec.name,
        )
    return factory(**spec.target_params)


def build_equivalence_chain(
    spec: ExperimentSpec, oracle: MembershipOracle
) -> EquivalenceOracle:
    """The spec's EQ oracle chain over ``oracle``.

    Spec-level ``batch_size`` and ``seed`` are injected into every oracle
    whose factory accepts them; per-component params override.
    """
    oracles = []
    for component in spec.equivalence:
        factory = EQ_ORACLE_REGISTRY.get(component.kind)
        params = supported_kwargs(
            factory, {"batch_size": spec.batch_size, "seed": spec.seed}
        )
        params.update(component.params)
        oracles.append(factory(oracle, **params))
    if len(oracles) == 1:
        return oracles[0]
    return ChainedEquivalenceOracle(oracles)


def assemble(
    spec: ExperimentSpec,
    sul: SUL | None = None,
    shared_cache=None,
) -> AssembledPipeline:
    """Build the full pipeline a spec describes.

    ``sul`` substitutes a ready instance (the facade's legacy path);
    otherwise the target registry builds it.  ``shared_cache`` pre-warms
    the first ``cache`` middleware layer with an existing
    :class:`~repro.learn.cache.QueryCache` (campaign cross-run sharing).
    """
    load_builtins()
    owns_sul = sul is None
    if sul is None:
        sul = build_sul(spec)
    layers = []
    try:
        base_oracle = SULMembershipOracle(sul)
        oracle: MembershipOracle = base_oracle
        cache_warmed = False
        store_attached = False
        corpus_attached = False
        for component in spec.middleware:
            kind = component.kind
            params = dict(component.params)
            # The store section upgrades the first plain cache layer to
            # the store-backed one; an explicit "store" layer just gets
            # the spec's identity defaults filled in.  A corpus section
            # (without a store) likewise upgrades the cache layer to the
            # corpus-seeded "passive" one; with both, the store wins the
            # layer and the corpus is streamed through it below.
            if kind == "cache" and spec.store is not None and not store_attached:
                kind = "store"
            if (
                kind == "cache"
                and spec.corpus is not None
                and not corpus_attached
            ):
                kind = "passive"
            if kind == "store" and not store_attached:
                if spec.store is not None:
                    params.setdefault("path", spec.store.path)
                    params.setdefault("flush_every", spec.store.flush_every)
                params.setdefault("fingerprint", spec.sul_fingerprint())
                store_attached = True
            if kind == "passive" and not corpus_attached:
                if spec.corpus is not None:
                    params.setdefault("path", spec.corpus.path)
                    params.setdefault("skip_conflicts", spec.corpus.skip_conflicts)
                    params.setdefault("max_traces", spec.corpus.max_traces)
                corpus_attached = True
            factory = MIDDLEWARE_REGISTRY.get(kind)
            if (
                kind in ("cache", "store", "passive")
                and shared_cache is not None
                and not cache_warmed
            ):
                params.setdefault("cache", shared_cache)
                cache_warmed = True
            layer = factory(oracle, **params)
            layers.append(layer)
            oracle = layer

        if spec.corpus is not None and not corpus_attached:
            # Store-backed (or custom) stacks keep their cache layer;
            # stream the corpus through its record hook instead -- with
            # a store this persists the corpus observations
            # (seed_cache_from_traces at bulk scale).
            from .learn.bulk import seed_oracle_from_corpus
            from .learn.cache import CachedMembershipOracle

            for layer in layers:
                if isinstance(layer, CachedMembershipOracle):
                    seed_oracle_from_corpus(layer, spec.corpus)
                    corpus_attached = True
                    break

        equivalence_oracle = build_equivalence_chain(spec, oracle)

        learner_factory = LEARNER_REGISTRY.get(spec.learner)
        learner_params = supported_kwargs(
            learner_factory, {"name": spec.name or sul.name}
        )
        learner_params.update(spec.learner_params)
        learner = learner_factory(oracle, equivalence_oracle, **learner_params)
    except BaseException:
        # Release whatever was built (pool threads, simulated sockets,
        # store connections) before surfacing the misconfiguration.
        for layer in layers:
            layer_close = getattr(layer, "close", None)
            if callable(layer_close):
                layer_close()
        if owns_sul:
            close = getattr(sul, "close", None)
            if callable(close):
                close()
        raise

    return AssembledPipeline(
        sul=sul,
        base_oracle=base_oracle,
        middleware=layers,
        oracle=oracle,
        equivalence_oracle=equivalence_oracle,
        learner=learner,
    )
