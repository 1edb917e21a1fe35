"""The declarative experiment registry.

Every paper artefact and every ablation of this reproduction is one
:class:`Experiment` value: which runs it needs (``RunRequest`` list) and
how its result tables are assembled from their payloads.  Benchmarks,
the CLI and the artifact pipeline all consume the same entries, so there
is exactly one definition of what, say, "Table 1, lower half" means.

The entries themselves live in :mod:`repro.experiments.defs`; this
module owns the container, lookup/validation, and the named groups the
sweep CLI accepts (``table1``, ``ablations``, ``paper``, ``all``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

#: Registration order == artifact regeneration order (stable, explicit).
_REGISTRY: dict = {}

#: Named sweep groups, populated alongside the entries in ``defs.py``.
GROUPS: dict = {}

#: Set only once the ``defs`` import has completed; a non-empty
#: ``_REGISTRY`` is not proof of that (the import may have died partway
#: through registration).
_LOADED = False


@dataclass(frozen=True)
class Experiment:
    """One registry entry: a paper artefact, ablation or derived table.

    ``build_requests``
        Zero-argument callable returning the tuple of
        :class:`~repro.experiments.request.RunRequest` the experiment
        needs.  Request ``rid`` values are the keys the table builder
        receives.
    ``build_tables``
        Callable mapping ``{rid: payload}`` to ``{stem: Table}`` — the
        artefact files ``results/<stem>.{txt,csv}``.  Must be a pure
        function of the payloads so cold, warm, sequential and parallel
        sweeps render byte-identical artifacts.
    """

    id: str
    title: str
    category: str  # "paper" | "ablation" | "extension"
    description: str
    artefacts: tuple
    build_requests: Callable[[], tuple] = field(repr=False)
    build_tables: Callable[[Mapping[str, dict]], dict] = field(repr=False)

    def requests(self) -> tuple:
        return tuple(self.build_requests())

    def tables(self, payloads: Mapping[str, dict]) -> dict:
        return self.build_tables(payloads)


def register(experiment: Experiment) -> Experiment:
    if experiment.id in _REGISTRY:
        raise ValueError(f"experiment {experiment.id!r} registered twice")
    claimed = {
        stem for entry in _REGISTRY.values() for stem in entry.artefacts
    }
    overlap = claimed.intersection(experiment.artefacts)
    if overlap:
        raise ValueError(
            f"artefact(s) {sorted(overlap)} already owned by another experiment"
        )
    _REGISTRY[experiment.id] = experiment
    return experiment


def ids() -> list:
    """All registered experiment identifiers, in registration order."""
    _ensure_loaded()
    return list(_REGISTRY)


def get(experiment_id: str) -> Experiment:
    _ensure_loaded()
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; registered: {list(_REGISTRY)}"
            f", groups: {sorted(GROUPS)}"
        ) from None


def all_experiments() -> list:
    _ensure_loaded()
    return list(_REGISTRY.values())


def expand(tokens) -> list:
    """Resolve a mix of experiment ids and group names to entries.

    Order follows the registry (regeneration order), duplicates collapse,
    and an unknown token raises with the full vocabulary — the CLI's
    error message.
    """
    _ensure_loaded()
    if isinstance(tokens, str):
        tokens = [tokens]
    selected = set()
    for token in tokens:
        if token in GROUPS:
            selected.update(GROUPS[token])
        elif token in _REGISTRY:
            selected.add(token)
        else:
            raise KeyError(
                f"unknown experiment or group {token!r}; experiments: "
                f"{list(_REGISTRY)}, groups: {sorted(GROUPS)}"
            )
    return [entry for eid, entry in _REGISTRY.items() if eid in selected]


def artefact_stems() -> list:
    """Every result-file stem owned by the registry, in regen order."""
    _ensure_loaded()
    return [stem for entry in _REGISTRY.values() for stem in entry.artefacts]


def _ensure_loaded() -> None:
    # The entry definitions import casestudy/fossy helpers; deferring the
    # import keeps ``repro.experiments`` importable without side effects
    # and avoids circular imports at package-init time.  On import
    # failure the partial registrations are rolled back so a retry sees
    # a clean registry instead of a spurious "registered twice".
    global _LOADED
    if _LOADED:
        return
    try:
        from . import defs  # noqa: F401  (registers on import)
    except BaseException:
        _REGISTRY.clear()
        GROUPS.clear()
        raise
    _LOADED = True
