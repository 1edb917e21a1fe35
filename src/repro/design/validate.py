"""Static validation of a :class:`~repro.design.spec.DesignSpec`.

``validate_spec`` returns every problem it can find as an actionable
:class:`ValidationIssue`; ``check_spec`` raises
:class:`SpecValidationError` carrying the full list.  The pass runs
before any simulator is constructed, so a bad mapping fails in
milliseconds instead of deadlocking a simulation.

Each issue is a ``str`` subclass (the human message is unchanged and all
string operations keep working) that additionally carries two
machine-readable fields:

``rule``
    A stable identifier of the violated rule (e.g.
    ``"channels.poll-required"``), so tools and tests can count and
    classify rejections without string-matching messages.
``path``
    Where in the spec the problem sits, as a dotted/indexed locator
    (e.g. ``"mapping.links[sw0.so]"``).

Checked, among others:

* every task is mapped onto **exactly one** processor (VTA layer),
* channel connectivity is closed — every link names a declared channel,
  every declared channel has endpoints, a P2P channel has exactly one,
* guard/arbiter compatibility — a guarded Shared Object reached over a
  shared bus needs a polling interval (no interrupt wiring on a bus),
  while polling on a dedicated P2P link is meaningless,
* memory capacity — the buffers placed into a block RAM must fit its
  declared depth,
* pipeline-window capacity — the tile store of a pipelined design needs
  four slots per software task, or the streaming window deadlocks.
"""

from __future__ import annotations

from .spec import (
    BUS_CHANNEL_KINDS,
    CHANNEL_KINDS,
    DesignSpec,
    LAYERS,
    MODULE_KINDS,
    P2P_CHANNEL_KINDS,
    SHARED_OBJECT_BEHAVIOURS,
    TASK_BEHAVIOURS,
    TRANSPORTS,
)

#: Slots of tile-store capacity one pipelined software task needs: the
#: task keeps a window of three tiles in flight plus one slot of
#: headroom so a ``put_component`` can never deadlock the window (see
#: ``ElaboratedModel._body_pipelined``).
PIPELINE_SLOTS_PER_TASK = 4

#: Tile-store capacity when ``SharedObjectSpec.capacity`` is ``None``
#: (the behaviour default in ``casestudy/shared_objects.py``).
DEFAULT_STORE_CAPACITY = 4


class ValidationIssue(str):
    """One validation problem: the human message plus machine codes.

    Behaves exactly like the message string (so existing substring
    checks, joins and formatting are untouched) while exposing the
    violated ``rule`` identifier and the spec ``path`` it anchors to.
    """

    __slots__ = ("rule", "path")

    def __new__(cls, message: str, rule: str = "generic", path: str = "spec"):
        issue = super().__new__(cls, message)
        issue.rule = rule
        issue.path = path
        return issue

    def as_dict(self) -> dict:
        return {"rule": self.rule, "path": self.path, "message": str(self)}


class SpecValidationError(ValueError):
    """A design spec failed static validation."""

    def __init__(self, spec_name: str, errors: list):
        self.spec_name = spec_name
        self.errors = list(errors)
        bullet = "\n  - ".join(self.errors)
        super().__init__(
            f"design spec {spec_name!r} failed validation "
            f"({len(self.errors)} error{'s' if len(self.errors) != 1 else ''}):"
            f"\n  - {bullet}"
        )


def check_spec(spec: DesignSpec) -> None:
    """Raise :class:`SpecValidationError` if *spec* has any problem."""
    errors = validate_spec(spec)
    if errors:
        raise SpecValidationError(spec.name, errors)


class _Collector:
    """Builds the issue list; ``say`` keeps the historical call shape."""

    def __init__(self):
        self.errors: list = []

    def __call__(self, message: str, rule: str = "generic", path: str = "spec"):
        self.errors.append(ValidationIssue(message, rule=rule, path=path))


def validate_spec(spec: DesignSpec) -> list:
    """All problems found in *spec*, as :class:`ValidationIssue` values
    (empty = valid)."""
    say = _Collector()

    if not spec.name:
        say("spec has no name; give DesignSpec.name a version identifier",
            rule="spec.unnamed", path="name")
    if not spec.tasks:
        say("spec declares no software tasks; add at least one TaskSpec",
            rule="tasks.empty", path="tasks")

    _check_unique_names(spec, say)
    _check_vocabulary(spec, say)
    _check_links(spec, say)
    _check_store_capacity(spec, say)
    if spec.mapping.layer == "vta":
        _check_processor_mapping(spec, say)
        _check_channels(spec, say)
        _check_memories(spec, say)
        _check_datapaths(spec, say)
        _check_synthesis_blocks(spec, say)
    else:
        _check_application_mapping(spec, say)
    return say.errors


# --------------------------------------------------------------------------
# individual rule groups
# --------------------------------------------------------------------------


def _check_unique_names(spec, say) -> None:
    seen: set = set()
    groups = (
        ("task", "tasks", spec.tasks),
        ("shared object", "shared_objects", spec.shared_objects),
        ("module", "modules", spec.modules),
        ("memory", "memories", spec.memories),
        ("processor", "mapping.processors", spec.mapping.processors),
        ("channel", "mapping.channels", spec.mapping.channels),
    )
    for kind, section, entries in groups:
        for entry in entries:
            if entry.name in seen:
                say(
                    f"duplicate name {entry.name!r} ({kind}); every task, "
                    "shared object, module, memory, processor, and channel "
                    "needs a distinct name",
                    rule="names.duplicate",
                    path=f"{section}[{entry.name}]",
                )
            seen.add(entry.name)


def _check_vocabulary(spec, say) -> None:
    for task in spec.tasks:
        if task.behaviour not in TASK_BEHAVIOURS:
            say(
                f"task {task.name!r} has unknown behaviour "
                f"{task.behaviour!r}; known: {sorted(TASK_BEHAVIOURS)}",
                rule="vocabulary.task-behaviour",
                path=f"tasks[{task.name}]",
            )
    for shared in spec.shared_objects:
        if shared.behaviour not in SHARED_OBJECT_BEHAVIOURS:
            say(
                f"shared object {shared.name!r} has unknown behaviour "
                f"{shared.behaviour!r}; known: {sorted(SHARED_OBJECT_BEHAVIOURS)}",
                rule="vocabulary.shared-object-behaviour",
                path=f"shared_objects[{shared.name}]",
            )
    for module in spec.modules:
        if module.kind not in MODULE_KINDS:
            say(
                f"module {module.name!r} has unknown kind {module.kind!r}; "
                f"known: {sorted(MODULE_KINDS)}",
                rule="vocabulary.module-kind",
                path=f"modules[{module.name}]",
            )
        if module.kind == "idwt_filter" and module.mode not in ("5/3", "9/7"):
            say(
                f"filter module {module.name!r} needs mode '5/3' or '9/7', "
                f"got {module.mode!r}",
                rule="vocabulary.filter-mode",
                path=f"modules[{module.name}]",
            )
    if spec.mapping.layer not in LAYERS:
        say(
            f"mapping layer {spec.mapping.layer!r} is unknown; "
            f"pick one of {LAYERS}",
            rule="vocabulary.layer",
            path="mapping.layer",
        )
    for channel in spec.mapping.channels:
        if channel.kind not in CHANNEL_KINDS:
            say(
                f"channel {channel.name!r} has unknown kind {channel.kind!r}; "
                f"known: {CHANNEL_KINDS}",
                rule="vocabulary.channel-kind",
                path=f"mapping.channels[{channel.name}]",
            )


def _required_ports(spec):
    """Every (client, port) pair the architecture opens, in bind order."""
    ports = []
    for module in spec.modules:
        for port in MODULE_KINDS.get(module.kind, ()):
            ports.append((module.name, port))
    for task in spec.tasks:
        for port in task.ports:
            ports.append((task.name, port))
    return ports


def _check_links(spec, say) -> None:
    known_clients = {t.name for t in spec.tasks} | {m.name for m in spec.modules}
    for link in spec.mapping.links:
        where = f"link {link.client}.{link.port} -> {link.target}"
        path = f"mapping.links[{link.client}.{link.port}]"
        if link.client not in known_clients:
            say(
                f"{where}: client {link.client!r} is not a declared task or "
                "module",
                rule="links.unknown-client",
                path=path,
            )
        if spec.shared_object(link.target) is None:
            say(
                f"{where}: target {link.target!r} is not a declared shared "
                f"object; declared: {[s.name for s in spec.shared_objects]}",
                rule="links.unknown-target",
                path=path,
            )
        if link.transport not in TRANSPORTS:
            say(
                f"{where}: unknown transport {link.transport!r}; "
                f"pick one of {TRANSPORTS}",
                rule="links.unknown-transport",
                path=path,
            )
        if link.chunk_words is not None and link.chunk_words < 1:
            say(
                f"{where}: chunk_words={link.chunk_words}; an RMI chunk "
                "carries at least one word (None keeps the transactor "
                "default)",
                rule="links.chunk-words-not-positive",
                path=f"{path}.chunk_words",
            )
        if link.poll_cycles is not None and link.poll_cycles < 1:
            say(
                f"{where}: poll_cycles={link.poll_cycles}; polls must be at "
                "least one bus cycle apart (None disables polling)",
                rule="links.poll-cycles-not-positive",
                path=f"{path}.poll_cycles",
            )
    # Connectivity closure: each opened port has exactly one link.
    links_by_port: dict = {}
    for link in spec.mapping.links:
        links_by_port.setdefault((link.client, link.port), []).append(link)
    required = _required_ports(spec)
    for client, port in required:
        bound = links_by_port.pop((client, port), [])
        if not bound:
            say(
                f"port {client}.{port} is unbound; add a LinkSpec connecting "
                "it to a shared object",
                rule="ports.unbound",
                path=f"mapping.links[{client}.{port}]",
            )
        elif len(bound) > 1:
            say(
                f"port {client}.{port} has {len(bound)} links; a port binds "
                "to exactly one provider",
                rule="ports.multiple-links",
                path=f"mapping.links[{client}.{port}]",
            )
    for (client, port), _ in links_by_port.items():
        if spec.task(client) is not None or spec.module(client) is not None:
            say(
                f"link {client}.{port} names a port the client does not "
                "open; declare it in TaskSpec.ports or drop the link",
                rule="ports.not-opened",
                path=f"mapping.links[{client}.{port}]",
            )


def _check_store_capacity(spec, say) -> None:
    """Pipelined designs need four tile slots per task, or the streaming
    window (three tiles in flight plus headroom) deadlocks the store."""
    pipelined = [
        task for task in spec.tasks if task.behaviour == "decode_pipelined"
    ]
    if not pipelined:
        return
    for shared in spec.shared_objects:
        if shared.behaviour != "tile_store":
            continue
        capacity = (
            shared.capacity
            if shared.capacity is not None
            else DEFAULT_STORE_CAPACITY
        )
        needed = PIPELINE_SLOTS_PER_TASK * len(pipelined)
        if capacity < needed:
            say(
                f"shared object {shared.name!r} has capacity {capacity} "
                f"tiles but {len(pipelined)} pipelined task"
                f"{'s' if len(pipelined) != 1 else ''} need"
                f"{'' if len(pipelined) != 1 else 's'} "
                f"{PIPELINE_SLOTS_PER_TASK} slots each ({needed} total); "
                "the streaming window would deadlock — raise "
                "SharedObjectSpec.capacity or drop tasks",
                rule="capacity.pipeline-window",
                path=f"shared_objects[{shared.name}]",
            )


def _check_processor_mapping(spec, say) -> None:
    for task in spec.tasks:
        if task.behaviour != "decode_pipelined":
            say(
                f"task {task.name!r}: the vta elaboration supports the "
                "'decode_pipelined' behaviour only (the paper maps the "
                f"Fig. 3 pipeline, versions 6a-7b); got {task.behaviour!r}",
                rule="processors.behaviour-unsupported",
                path=f"tasks[{task.name}]",
            )
    owners: dict = {}
    for cpu in spec.mapping.processors:
        for task_name in cpu.tasks:
            if spec.task(task_name) is None:
                say(
                    f"processor {cpu.name!r} maps unknown task "
                    f"{task_name!r}; declared tasks: "
                    f"{[t.name for t in spec.tasks]}",
                    rule="processors.unknown-task",
                    path=f"mapping.processors[{cpu.name}]",
                )
            owners.setdefault(task_name, []).append(cpu.name)
    for task in spec.tasks:
        cpus = owners.get(task.name, [])
        if not cpus:
            say(
                f"task {task.name!r} is not mapped to any processor; add it "
                "to a ProcessorSpec.tasks tuple in the mapping",
                rule="tasks.unmapped",
                path=f"tasks[{task.name}]",
            )
        elif len(cpus) > 1:
            say(
                f"task {task.name!r} is mapped to {len(cpus)} processors "
                f"({', '.join(cpus)}); every task maps onto exactly one",
                rule="tasks.multiply-mapped",
                path=f"tasks[{task.name}]",
            )


def _check_channels(spec, say) -> None:
    declared = {c.name: c for c in spec.mapping.channels}
    endpoints: dict = {name: 0 for name in declared}
    for link in spec.mapping.links:
        where = f"link {link.client}.{link.port} -> {link.target}"
        path = f"mapping.links[{link.client}.{link.port}]"
        if link.transport != "rmi":
            say(
                f"{where}: vta links use transport 'rmi' (got "
                f"{link.transport!r}); direct bindings exist only at the "
                "application layer",
                rule="channels.transport-not-rmi",
                path=path,
            )
            continue
        if link.channel is None:
            say(f"{where}: vta link names no channel; route it over a "
                "declared ChannelSpec",
                rule="channels.unrouted", path=path)
            continue
        channel = declared.get(link.channel)
        if channel is None:
            say(
                f"{where}: names channel {link.channel!r} which is not "
                "declared in the mapping (dangling channel endpoint); "
                f"declared channels: {sorted(declared)}",
                rule="channels.dangling-endpoint",
                path=path,
            )
            continue
        endpoints[channel.name] += 1
        # Every Shared Object behaviour has guarded methods.
        target = spec.shared_object(link.target)
        guarded = (
            target is not None and target.behaviour in SHARED_OBJECT_BEHAVIOURS
        )
        if channel.kind in BUS_CHANNEL_KINDS and guarded and link.poll_cycles is None:
            say(
                f"{where}: guarded object reached over bus {channel.name!r} "
                "needs poll_cycles (a bus-attached client has no interrupt "
                "wiring and must poll the object's status register)",
                rule="channels.poll-required",
                path=path,
            )
        if channel.kind in P2P_CHANNEL_KINDS and link.poll_cycles is not None:
            say(
                f"{where}: poll_cycles set on point-to-point channel "
                f"{channel.name!r}; dedicated links signal readiness "
                "directly, drop the polling interval",
                rule="channels.poll-on-p2p",
                path=path,
            )
    for name, count in endpoints.items():
        kind = declared[name].kind
        if count == 0:
            say(
                f"channel {name!r} has no endpoints; remove it or route a "
                "link over it",
                rule="channels.orphaned",
                path=f"mapping.channels[{name}]",
            )
        elif kind in P2P_CHANNEL_KINDS and count > 1:
            say(
                f"point-to-point channel {name!r} has {count} endpoints; a "
                "P2P channel connects exactly one client — use a bus or one "
                "channel per link",
                rule="channels.p2p-shared",
                path=f"mapping.channels[{name}]",
            )


def _check_memories(spec, say) -> None:
    for placement in spec.mapping.placements:
        memory = spec.memory(placement.memory)
        where = f"placement {placement.target} -> {placement.memory}"
        path = f"mapping.placements[{placement.target}->{placement.memory}]"
        if memory is None:
            say(
                f"{where}: memory {placement.memory!r} is not declared; "
                f"declared memories: {[m.name for m in spec.memories]}",
                rule="memories.unknown",
                path=path,
            )
            continue
        if spec.shared_object(placement.target) is None:
            say(
                f"{where}: target {placement.target!r} is not a declared "
                "shared object",
                rule="memories.unknown-target",
                path=path,
            )
        total = sum(buffer.words for buffer in placement.buffers)
        if total > memory.depth_words:
            say(
                f"{where}: placed buffers total {total} words but memory "
                f"{placement.memory!r} is only {memory.depth_words} words "
                "deep; increase MemorySpec.depth_words or shrink the "
                "buffers (fewer tile slots)",
                rule="memories.over-capacity",
                path=path,
            )


def _check_datapaths(spec, say) -> None:
    for datapath in spec.mapping.datapaths:
        if spec.module(datapath.module) is None:
            say(
                f"datapath refinement names unknown module "
                f"{datapath.module!r}; declared: "
                f"{[m.name for m in spec.modules]}",
                rule="datapaths.unknown-module",
                path=f"mapping.datapaths[{datapath.module}]",
            )


def _check_synthesis_blocks(spec, say) -> None:
    names = {b.name for b in spec.mapping.synthesis_blocks}
    known = {s.name for s in spec.shared_objects} | {m.name for m in spec.modules}
    addresses: dict = {}
    for block in spec.mapping.synthesis_blocks:
        path = f"mapping.synthesis_blocks[{block.name}]"
        if block.name not in known:
            say(
                f"synthesis block {block.name!r} is neither a declared "
                "shared object nor a module",
                rule="synthesis.unknown-block",
                path=path,
            )
        if block.p2p_partner is not None and block.p2p_partner not in names:
            say(
                f"synthesis block {block.name!r} names p2p_partner "
                f"{block.p2p_partner!r} which is not a synthesis block",
                rule="synthesis.unknown-partner",
                path=path,
            )
        previous = addresses.get(block.base_address)
        if previous is not None:
            say(
                f"synthesis blocks {previous!r} and {block.name!r} share "
                f"base address {block.base_address:#x}",
                rule="synthesis.address-collision",
                path=path,
            )
        addresses[block.base_address] = block.name


def _check_application_mapping(spec, say) -> None:
    mapping = spec.mapping
    for link in mapping.links:
        where = f"link {link.client}.{link.port} -> {link.target}"
        path = f"mapping.links[{link.client}.{link.port}]"
        if link.transport != "direct":
            say(
                f"{where}: application-layer links bind directly (transport "
                f"'direct'), got {link.transport!r}; move the spec to the "
                "vta layer to use RMI transport",
                rule="application.transport-not-direct",
                path=path,
            )
        if link.channel is not None:
            say(
                f"{where}: application-layer link must not name a channel "
                f"(got {link.channel!r}); channels belong to the vta mapping",
                rule="application.channel-named",
                path=path,
            )
    for kind, entries in (
        ("processors", mapping.processors),
        ("channels", mapping.channels),
        ("placements", mapping.placements),
        ("datapaths", mapping.datapaths),
    ):
        if entries:
            say(
                f"application-layer mapping declares {kind}; those are vta "
                "refinements — set MappingSpec.layer to 'vta' or drop them",
                rule="application.vta-refinements",
                path=f"mapping.{kind}",
            )
