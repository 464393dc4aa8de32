"""The mechanism registry: one name table for the whole system.

Every component that names mechanisms -- the facade, the experiment
runner, the orchestrator's cache-key builders, the CLI, the service --
resolves them through this registry, and every designator (a name, a
spec, a built mechanism) becomes a live mechanism through one rule,
:func:`resolve`.  An entry bundles the factory with its *metadata*:
the paper-style display name, aliases, the position in the paper's
plot order, and whether the sampler is pipeline-capable.

Registering a custom mechanism makes it available everywhere at once::

    from repro.mechanisms import Mechanism, register

    class MyMechanism(Mechanism):
        ...

    register("my-mech", MyMechanism, display="MY-MECH")
    # registering the class directly lets the registry inherit its
    # pipeline capability; lambda factories must pass pipeline=.

    # now `repro.mine(..., mechanism="my-mech")`, `run_mechanism(...)`,
    # composite parts and `frapp privacy` all resolve it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.schema import Schema
from repro.exceptions import ExperimentError, FrappError, UnknownMechanismError
from repro.mechanisms.base import Mechanism, MechanismSpec

#: Registered entries by canonical key.
_REGISTRY: dict[str, "MechanismEntry"] = {}
#: Alias -> canonical key (aliases are normalised like keys).
_ALIASES: dict[str, str] = {}


@dataclass(frozen=True)
class MechanismEntry:
    """One registry row: factory plus display/ordering metadata.

    Attributes
    ----------
    key:
        Canonical registry name (lower case, ``-`` separated).
    factory:
        ``(schema, **params) -> Mechanism``.
    display:
        Display name used in comparison tables and run labels.
    aliases:
        Alternative names accepted by :func:`get`.
    paper_order:
        Position in the paper's mechanism line-up (``None`` for
        non-paper mechanisms); fixes plot/table row order everywhere.
    pipeline:
        Whether the mechanism's sampler supports the chunked /
        multi-worker execution path.
    """

    key: str
    factory: object
    display: str
    aliases: tuple[str, ...] = ()
    paper_order: int | None = None
    pipeline: bool = False

    def create(self, schema: Schema, **params) -> Mechanism:
        """Instantiate the mechanism over ``schema``."""
        return self.factory(schema, **params)


def normalise(name: str) -> str:
    """Canonical key form of a mechanism name (shared by all lookups)."""
    return str(name).lower().replace("_", "-")


def register(
    key: str,
    factory,
    *,
    display: str | None = None,
    aliases=(),
    paper_order: int | None = None,
    pipeline: bool | None = None,
    overwrite: bool = False,
) -> MechanismEntry:
    """Register a mechanism factory under ``key`` (and ``aliases``).

    ``pipeline`` defaults to the factory's own
    ``Mechanism.supports_pipeline`` when the factory *is* a mechanism
    class (the common case), so the registry metadata -- which the
    orchestrator's cache-key builder consults -- cannot silently
    disagree with what the mechanism does at execution time.  Non-class
    factories (lambdas, builder functions) default to ``False`` and
    must pass ``pipeline=True`` explicitly when their mechanisms are
    pipeline-capable.

    Re-registering an existing key raises unless ``overwrite`` is set
    (tests and notebooks use that to swap implementations in place).
    Returns the new entry.
    """
    canonical = normalise(key)
    if not canonical:
        raise ExperimentError("mechanism key must be non-empty")
    if not overwrite and (canonical in _REGISTRY or canonical in _ALIASES):
        raise ExperimentError(f"mechanism {canonical!r} is already registered")
    if pipeline is None:
        pipeline = bool(
            isinstance(factory, type)
            and issubclass(factory, Mechanism)
            and factory.supports_pipeline
        )
    entry = MechanismEntry(
        key=canonical,
        factory=factory,
        display=display or canonical.upper(),
        aliases=tuple(normalise(a) for a in aliases),
        paper_order=paper_order,
        pipeline=pipeline,
    )
    _REGISTRY[canonical] = entry
    for alias in entry.aliases:
        existing = _ALIASES.get(alias)
        if not overwrite and (alias in _REGISTRY or (existing and existing != canonical)):
            raise ExperimentError(f"mechanism alias {alias!r} is already registered")
        _ALIASES[alias] = canonical
    return entry


def unregister(key: str) -> None:
    """Remove a registered mechanism (primarily for tests)."""
    canonical = normalise(key)
    entry = _REGISTRY.pop(canonical, None)
    if entry is None:
        raise UnknownMechanismError(_unknown_message(canonical))
    for alias in entry.aliases:
        _ALIASES.pop(alias, None)


def _unknown_message(name: str) -> str:
    known = ", ".join(sorted(_REGISTRY))
    return f"unknown mechanism {name!r}; registered mechanisms: {known}"


def get(name: str) -> MechanismEntry:
    """The entry for ``name`` (key, alias or display name, any case).

    Raises
    ------
    UnknownMechanismError
        Listing the registered names -- the single error every caller
        (facade, runner, CLI) surfaces.
    """
    canonical = normalise(name)
    entry = _REGISTRY.get(_ALIASES.get(canonical, canonical))
    if entry is not None:
        return entry
    for candidate in _REGISTRY.values():
        if normalise(candidate.display) == canonical:
            return candidate
    raise UnknownMechanismError(_unknown_message(name))


def available() -> tuple[str, ...]:
    """Registered canonical keys, sorted."""
    return tuple(sorted(_REGISTRY))


def create(name: str, schema: Schema, **params) -> Mechanism:
    """Resolve ``name`` and instantiate it over ``schema``.

    The one place factories are called with caller-supplied parameters,
    so it is where bad ones fail closed: a parameter the factory does
    not take, or a value it rejects (a raw ``TypeError``,
    ``ValueError`` or ``LookupError``), raises
    :class:`~repro.exceptions.ExperimentError` naming the mechanism and
    the parameters.  Typed errors the factory raises itself
    (:class:`~repro.exceptions.FrappError` subclasses) pass through
    unchanged.
    """
    entry = get(name)
    for key in params:
        if not factory_accepts(entry.factory, key):
            raise ExperimentError(
                f"mechanism {entry.key!r} got an unexpected keyword "
                f"parameter {key!r}"
            )
    try:
        return entry.create(schema, **params)
    except FrappError:
        raise
    except (TypeError, ValueError, LookupError) as error:
        raise ExperimentError(
            f"mechanism {entry.key!r} rejected parameters {params!r}: {error}"
        ) from None


def factory_accepts(factory, name: str) -> bool:
    """Whether ``factory`` takes a keyword argument called ``name``.

    A named parameter or a ``**kwargs`` catch-all both count.  Used by
    :func:`accepted` to hand a named mechanism only the defaults it
    declares, and by :func:`create` to refuse parameters a factory
    does not take.
    """
    import inspect

    return any(
        p.name == name or p.kind is inspect.Parameter.VAR_KEYWORD
        for p in inspect.signature(factory).parameters.values()
    )


def accepted(name: str, defaults: dict) -> dict:
    """The entries of ``defaults`` that ``name``'s factory takes.

    A mechanism named by string builds with exactly these (see
    :func:`resolve`), so the orchestrator keys its cells on them too.
    """
    factory = get(name).factory
    return {
        key: value
        for key, value in defaults.items()
        if factory_accepts(factory, key)
    }


def resolve(mechanism, schema: Schema, *, defaults=None, params=None) -> Mechanism:
    """Turn any mechanism designator into a live mechanism over ``schema``.

    The one designator rule of the system:

    * a registered name, alias or display name is built with each
      ``defaults`` entry its factory accepts (:func:`accepted`), then
      ``params``;
    * a :class:`MechanismSpec` or its ``{"name", "params"}`` dict is
      built with its own parameters, then ``params``;
    * a built :class:`Mechanism` is returned as is once its schema
      matches; ``params`` is refused for it.

    Raises
    ------
    ExperimentError
        For any other designator, a schema mismatch, ``params`` with a
        built mechanism, or parameters the factory refuses
        (:func:`create`); an unregistered name raises its subclass
        :class:`~repro.exceptions.UnknownMechanismError`.
    """
    if isinstance(mechanism, Mechanism):
        if params:
            raise ExperimentError(
                "params cannot be combined with an already-built mechanism; "
                "pass a registry name or spec instead"
            )
        if mechanism.schema != schema:
            raise ExperimentError(
                "the mechanism's schema does not match the schema it is used with"
            )
        return mechanism
    if isinstance(mechanism, dict):
        mechanism = MechanismSpec.from_dict(mechanism)
    if isinstance(mechanism, MechanismSpec):
        name, merged = mechanism.name, mechanism.as_params()
    elif isinstance(mechanism, str):
        name, merged = mechanism, accepted(mechanism, defaults or {})
    else:
        raise ExperimentError(
            "mechanism must be a registry name, spec dict, MechanismSpec or "
            f"Mechanism, got {type(mechanism).__name__}"
        )
    merged.update(params or {})
    return create(name, schema, **merged)


def from_spec(spec, schema: Schema) -> Mechanism:
    """Build a mechanism from a :class:`MechanismSpec` (or its dict form).

    :func:`resolve` restricted to specs: anything else raises
    :class:`~repro.exceptions.ExperimentError`.
    """
    if not isinstance(spec, (MechanismSpec, dict)):
        raise ExperimentError(f"not a mechanism spec: {spec!r}")
    return resolve(spec, schema)


def display_name(name: str) -> str:
    """The display name for any accepted form of ``name``."""
    return get(name).display


def paper_mechanisms() -> tuple[str, ...]:
    """Display names of the paper's line-up, in plot order.

    The single source of truth behind
    :data:`repro.experiments.config.PAPER_MECHANISMS`, the figure
    builders and the reporting row order.
    """
    entries = [e for e in _REGISTRY.values() if e.paper_order is not None]
    return tuple(e.display for e in sorted(entries, key=lambda e: e.paper_order))


def display_order(names) -> list[str]:
    """Sort mechanism display names into the registry's plot order.

    Names registered with a ``paper_order`` come first in that order;
    unknown or unordered names keep their relative input order after
    them.  Used by the reporting layer so comparison tables always list
    mechanisms consistently.
    """
    names = list(names)
    ranks = {}
    for position, name in enumerate(names):
        try:
            entry = get(name)
        except UnknownMechanismError:
            entry = None
        order = entry.paper_order if entry is not None else None
        ranks[name] = (0, order, position) if order is not None else (1, 0, position)
    return sorted(names, key=lambda name: ranks[name])
